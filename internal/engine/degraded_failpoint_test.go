//go:build failpoint

package engine

import (
	"errors"
	"fmt"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// newFaultEngine builds a small keyword engine with the given retry
// policy, disarming every failpoint before and after the test.
func newFaultEngine(t *testing.T, retry disk.RetryPolicy) *Engine[string] {
	t.Helper()
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	eng, err := New(Config[string]{
		K:             3,
		MemoryBudget:  1 << 30,
		FlushFraction: 0.5,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		DiskRetry:     retry,
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func mustEnable(t *testing.T, site, spec string) {
	t.Helper()
	if err := failpoint.Enable(site, spec); err != nil {
		t.Fatalf("enable %s=%s: %v", site, spec, err)
	}
}

func searchIDs(t *testing.T, e *Engine[string], key string, k int) map[types.ID]bool {
	t.Helper()
	res, err := e.Search(query.Request[string]{Keys: []string{key}, K: k})
	if err != nil {
		t.Fatalf("search %q: %v", key, err)
	}
	ids := make(map[types.ID]bool, len(res.Items))
	for _, it := range res.Items {
		ids[it.MB.ID] = true
	}
	return ids
}

// TestEvictionRollbackSurvivesRestart checks the stronger durability
// half of atomic flush semantics: records rolled back after a failed
// flush are still covered by the WAL, so a close/reopen after the
// failure loses nothing.
func TestEvictionRollbackSurvivesRestart(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	dir := t.TempDir()
	open := func() *Engine[string] {
		eng, err := New(Config[string]{
			K:             3,
			MemoryBudget:  1 << 30,
			FlushFraction: 0.5,
			Attr:          attr.Keyword(),
			Clock:         clock.NewLogical(1, 1),
			DiskDir:       dir,
			Durable:       true,
			Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
			SyncFlush:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	var want []types.ID
	for i := 0; i < 30; i++ {
		want = append(want, ingest(t, eng, int64(i+1), "all"))
	}
	mustEnable(t, failpoint.FlushAfterEvict, "error")
	if _, err := eng.FlushNow(); err == nil {
		t.Fatal("flush succeeded despite post-evict fault")
	}
	failpoint.Disable(failpoint.FlushAfterEvict)
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	eng = open()
	defer eng.Close()
	got := searchIDs(t, eng, "all", 100)
	for _, id := range want {
		if !got[id] {
			t.Fatalf("record %d lost across failed-flush restart", id)
		}
	}
}

// TestInlineCompactionFailureDoesNotFailFlush: without a background
// compactor (SyncFlush) the merge a flush sets off runs inline, after
// the segment is installed. Its failure is the compactor's — counted,
// logged, retried by the next install — not the flush's: reported as a
// failed flush, the batch would be restored beside the live segment that
// already holds it and the engine would degrade over a healthy write
// path.
func TestInlineCompactionFailureDoesNotFailFlush(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	cfg := reclaimConfig(t.TempDir(), 1<<30, true, alloc.PolicyPooled)
	cfg.DiskLevelFanout = 2
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	acked := 0
	flush := func() {
		t.Helper()
		if _, err := eng.IngestBatch(soakBatch(acked, 10)); err != nil {
			t.Fatal(err)
		}
		acked += 10
		if _, err := eng.FlushNow(); err != nil {
			t.Fatalf("FlushNow with its segment installed: %v", err)
		}
		if n := eng.store.Len(); n != 0 {
			t.Fatalf("%d records in memory after a flush that evicts everything: restored beside their segment", n)
		}
		if degraded, reason := eng.Degraded(); degraded {
			t.Fatalf("degraded over a healthy write path: %s", reason)
		}
	}
	flush()
	flush() // L0 is at its fanout: the next install overflows it
	mustEnable(t, failpoint.DiskCompactRename, "error")
	flush()
	st := eng.Stats().Disk
	if st.CompactionFailures != 1 || st.Compactions != 0 || st.Segments != 3 {
		t.Fatalf("after the failed merge: %d failures, %d compactions, %d segments; want 1, 0, 3",
			st.CompactionFailures, st.Compactions, st.Segments)
	}
	if log := flushLog(t, eng); log[len(log)-1].Err != "" {
		t.Fatalf("the cycle whose merge failed reads as failed: %+v", log[len(log)-1])
	}
	failpoint.DisableAll()
	flush() // the next cycle's merge succeeds
	st = eng.Stats().Disk
	if st.CompactionFailures != 1 || st.Compactions == 0 || st.CompactionBacklog != 0 {
		t.Fatalf("after the retried merge: %d failures, %d compactions, backlog %d; want 1, >0, 0",
			st.CompactionFailures, st.Compactions, st.CompactionBacklog)
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"all"}, K: acked + 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != acked {
		t.Fatalf("%d of %d acked records answerable", len(res.Items), acked)
	}
}

// TestUnsyncedManifestCommitStands fails the directory fsync at each of
// its hits in one flush — the segment install's and the manifest
// commit's, after its rename has made the new manifest live — and
// reopens, both a copy of the directory taken right after the flush (the
// process died there) and the directory after Close. The flush may
// surface the error, but a commit that took effect stands: nothing the
// live manifest names is deleted, so the next open succeeds and answers
// every acknowledged record exactly once, whether the cycle restored its
// batch or installed it.
func TestUnsyncedManifestCommitStands(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	open := func(dir string) (*Engine[string], error) {
		return New(Config[string]{
			K:             3,
			MemoryBudget:  1 << 30,
			FlushFraction: 0.5,
			Attr:          attr.Keyword(),
			Clock:         clock.NewLogical(1, 1),
			DiskDir:       dir,
			Durable:       true,
			Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
			SyncFlush:     true,
		})
	}
	// run ingests three rounds, flushing after each, with spec armed on
	// the directory fsync for the last flush only, and copies dir to
	// image right after that flush. It returns the acked IDs, the armed
	// site's hits and the last flush's error.
	run := func(dir, image, spec string) ([]types.ID, int64, error) {
		eng, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var acked []types.ID
		for round := 0; round < 3; round++ {
			for i := 0; i < 20; i++ {
				ts := int64(round*20 + i + 1)
				acked = append(acked, ingest(t, eng, ts, "all", fmt.Sprintf("k%d", i%4)))
			}
			if round < 2 {
				if _, err := eng.FlushNow(); err != nil {
					t.Fatalf("round %d flush: %v", round, err)
				}
			}
		}
		mustEnable(t, failpoint.DiskDirSync, spec)
		_, ferr := eng.FlushNow()
		hits := failpoint.Hits(failpoint.DiskDirSync)
		failpoint.Disable(failpoint.DiskDirSync)
		copyTree(t, dir, image)
		if err := eng.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return acked, hits, ferr
	}
	check := func(t *testing.T, dir string, acked []types.ID) {
		t.Helper()
		eng, err := open(dir)
		if err != nil {
			t.Fatalf("reopen after the failed fsync: %v", err)
		}
		defer eng.Close()
		res, err := eng.Search(query.Request[string]{Keys: []string{"all"}, K: 1000})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[types.ID]int, len(res.Items))
		for _, it := range res.Items {
			seen[it.MB.ID]++
		}
		for _, id := range acked {
			if seen[id] != 1 {
				t.Fatalf("acked record %d answered %d times", id, seen[id])
			}
		}
		if len(res.Items) != len(acked) {
			t.Fatalf("%d items answered, %d acked", len(res.Items), len(acked))
		}
	}
	_, hits, err := run(t.TempDir(), t.TempDir(), "sleep(0)")
	if err != nil {
		t.Fatal(err)
	}
	if hits < 2 {
		t.Fatalf("a flush passed %d directory fsyncs, want the install's and the commit's", hits)
	}
	for n := int64(1); n <= hits; n++ {
		t.Run(fmt.Sprintf("fail-every-%d", n), func(t *testing.T) {
			dir, image := t.TempDir(), t.TempDir()
			acked, _, ferr := run(dir, image, fmt.Sprintf("errevery(%d)", n))
			if ferr != nil && !errors.Is(ferr, failpoint.ErrInjected) {
				t.Fatalf("flush error %v is not the injected one", ferr)
			}
			check(t, image, acked)
			check(t, dir, acked)
		})
	}
}
