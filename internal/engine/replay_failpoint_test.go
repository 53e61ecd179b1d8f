//go:build failpoint

package engine

import (
	"fmt"
	"slices"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/failpoint"
	"kflushing/internal/index"
	"kflushing/internal/query"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// TestReferenceCrashWindowReplaysOnce crashes an engine between a
// reference frame's fsync and its source's drain (wal/reference/synced):
// the source still covers the survivors and the active file lists them
// too. The engine recovered from that image holds each record in one
// wrapper, holds one log claim per resident record, answers as the
// crashed engine did, and a later reclaim drains the source.
func TestReferenceCrashWindowReplaysOnce(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	const (
		budget = 24 << 10
		batch  = 8
	)
	cfg := reclaimConfig(t.TempDir(), budget, true, alloc.PolicyPooled)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mustEnable(t, failpoint.WALReferenceSynced, "error")
	acked := 0
	for failpoint.Hits(failpoint.WALReferenceSynced) == 0 {
		if acked > 400*budget/soakText {
			t.Fatal("no reclaim reached the reference frame's fsync")
		}
		if _, err := eng.IngestBatch(soakBatch(acked, batch)); err != nil {
			t.Fatal(err)
		}
		acked += batch
	}
	source := eng.stream.target
	if !eng.wal.Replays(source) {
		t.Fatalf("source file %d drained although its reference failed", source)
	}
	keys := []string{"all"}
	for w := 0; w < 16; w++ {
		keys = append(keys, fmt.Sprintf("w%d", w))
	}
	answers := func(e *Engine[string]) map[string][]types.ID {
		t.Helper()
		out := map[string][]types.ID{}
		for _, key := range keys {
			res, err := e.Search(query.Request[string]{Keys: []string{key}, K: acked + 100})
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range res.Items {
				out[key] = append(out[key], it.MB.ID)
			}
		}
		return out
	}
	before := answers(eng)

	// What a kill -9 now would leave.
	crashed := cfg
	crashed.DiskDir = t.TempDir()
	copyTree(t, cfg.DiskDir, crashed.DiskDir)
	failpoint.DisableAll()
	crashed.Clock = clock.NewLogical(1, 1)
	crashed.Policy.Policy = core.New[string]()
	re, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	wrappers := map[types.ID]*store.Record{}
	re.idx.Range(func(en *index.Entry[string]) bool {
		posted, _, _ := en.Probe(-1)
		for _, rec := range posted {
			if w, ok := wrappers[rec.MB.ID]; ok && w != rec {
				t.Fatalf("record %d resident in two wrappers", rec.MB.ID)
			}
			wrappers[rec.MB.ID] = rec
		}
		return true
	})
	if int64(len(wrappers)) != re.store.Len() {
		t.Fatalf("%d records posted, %d counted resident", len(wrappers), re.store.Len())
	}
	if live := re.wal.Stats().LiveRecords; live != re.store.Len() {
		t.Fatalf("%d log claims for %d memory-resident records", live, re.store.Len())
	}
	after := answers(re)
	for _, key := range keys {
		if !slices.Equal(before[key], after[key]) {
			t.Fatalf("key %q answers %v after recovery, %v before", key, after[key], before[key])
		}
	}
	if len(after["all"]) != acked {
		t.Fatalf("%d of %d acked records answer after recovery", len(after["all"]), acked)
	}

	// Ingest on: a later reclaim (or the flushes themselves) drains the
	// source, the older delivery replay kept.
	for n := 0; re.wal.Replays(source); n += batch {
		if n > 400*budget/soakText {
			t.Fatalf("source file %d still replayed after %d more records", source, n)
		}
		if _, err := re.IngestBatch(soakBatch(acked+n, batch)); err != nil {
			t.Fatal(err)
		}
	}
	if live := re.wal.Stats().LiveRecords; live != re.store.Len() {
		t.Fatalf("%d log claims for %d memory-resident records once the source drained", live, re.store.Len())
	}
}
