package engine

import (
	"path/filepath"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// sharedLogPair opens a keyword engine and a user engine over one
// stream under root: the keyword engine owns the log.
func sharedLogPair(t *testing.T, root string, budget int64) (*Stream, *Engine[string], *Engine[uint64]) {
	t.Helper()
	st := NewStream()
	kcfg := reclaimConfig(filepath.Join(root, "keyword"), budget, true, alloc.PolicyPooled)
	kcfg.Stream, kcfg.Name = st, "keyword"
	kw, err := New(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	us, err := New(Config[uint64]{
		K:             3,
		MemoryBudget:  budget,
		FlushFraction: 0.25,
		KeysOf:        attr.UserKeys,
		KeyHash:       attr.HashUint64,
		KeyLen:        attr.UserLen,
		EncodeKey:     attr.UserEncode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       filepath.Join(root, "user"),
		Durable:       true,
		Policy:        core.New[uint64](),
		TrackOverK:    true,
		SyncFlush:     true,
		Stream:        st,
		Name:          "user",
	})
	if err != nil {
		_ = st.Close()
		t.Fatal(err)
	}
	if err := st.Open(); err != nil {
		t.Fatal(err)
	}
	return st, kw, us
}

// TestSharedLogReclaimSoak runs PR-sized soak traffic through two
// engines over one log — every record indexed by the keyword engine,
// every other one by the user engine too — and checks, batch by batch,
// that the log's covers are the two engines' memory-resident records
// together, that what a recovery reads stays within three times the
// budgets the log feeds, that the user tier holds no log file, and that
// reclaim lists both engines' survivors and drains files. A reopen on a
// copy finds every record under each engine that indexes it.
func TestSharedLogReclaimSoak(t *testing.T) {
	const (
		budget = 24 << 10
		batch  = 8
	)
	total := 100 * budget / soakText
	if testing.Short() {
		total /= 4
	}
	root := t.TempDir()
	st, kw, us := sharedLogPair(t, root, budget)
	defer st.Close()
	for i := 0; i < total; i += batch {
		mbs := soakBatch(i, batch)
		for j, mb := range mbs {
			if (i+j)%2 == 1 {
				mb.UserID = uint64(1 + (i+j)%5)
			}
		}
		ids, err := kw.IngestBatch(mbs)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range ids {
			if id != types.ID(i+j+1) {
				t.Fatalf("record %d got ID %d: the stream numbers records once", i+j, id)
			}
		}
		ws := kw.wal.Stats()
		if resident := kw.store.Len() + us.store.Len(); ws.LiveRecords != resident {
			t.Fatalf("after %d records %d covers for %d memory-resident records (keyword %d, user %d)",
				i+batch, ws.LiveRecords, resident, kw.store.Len(), us.store.Len())
		}
		if ws.Bytes > 3*2*budget {
			t.Fatalf("after %d records a recovery reads %d bytes, over 3x the %d the log feeds", i+batch, ws.Bytes, 2*budget)
		}
	}
	if ust := us.Stats(); ust.WALOwner || ust.WAL.Files != 0 || !kw.Stats().WALOwner {
		t.Fatalf("the user engine reports the log: %+v", ust.WAL)
	}
	if err := kw.Err(); err != nil {
		t.Fatal(err)
	}
	if err := us.Err(); err != nil {
		t.Fatal(err)
	}
	ws := kw.wal.Stats()
	if ws.ReferencedRecords == 0 || ws.ReclaimedBytes == 0 {
		t.Fatalf("the shared log never reclaimed: %+v", ws)
	}
	if logs, _ := filepath.Glob(filepath.Join(root, "user", "wal-*")); len(logs) != 0 {
		t.Fatalf("the user tier holds log files %v", logs)
	}
	checkNoBlocks(t, filepath.Join(root, "keyword"))
	checkNoBlocks(t, filepath.Join(root, "user"))

	// What a kill -9 now would leave: every record back under each
	// engine indexing it, once.
	crash := t.TempDir()
	copyTree(t, root, crash)
	st2, kw2, us2 := sharedLogPair(t, crash, budget)
	defer st2.Close()
	acked := total / batch * batch
	seen := func(items []query.Item) map[types.ID]bool {
		t.Helper()
		out := make(map[types.ID]bool, len(items))
		for _, it := range items {
			if out[it.MB.ID] {
				t.Fatalf("record %d answered twice after recovery", it.MB.ID)
			}
			out[it.MB.ID] = true
		}
		return out
	}
	res, err := kw2.Search(query.Request[string]{Keys: []string{"all"}, K: acked + 100})
	if err != nil {
		t.Fatal(err)
	}
	byKeyword := seen(res.Items)
	byUser := map[types.ID]bool{}
	for u := uint64(1); u <= 5; u++ {
		res, err := us2.Search(query.Request[uint64]{Keys: []uint64{u}, K: acked})
		if err != nil {
			t.Fatal(err)
		}
		for id := range seen(res.Items) {
			byUser[id] = true
		}
	}
	for id := 1; id <= acked; id++ {
		if !byKeyword[types.ID(id)] {
			t.Fatalf("record %d lost under the keyword engine", id)
		}
		if want := (id-1)%2 == 1; byUser[types.ID(id)] != want {
			t.Fatalf("record %d under the user engine: %v, want %v", id, byUser[types.ID(id)], want)
		}
	}
	if ws := kw2.wal.Stats(); ws.LiveRecords != kw2.store.Len()+us2.store.Len() {
		t.Fatalf("after recovery %d covers for %d memory-resident records", ws.LiveRecords, kw2.store.Len()+us2.store.Len())
	}
}
