package engine

import (
	"path/filepath"
	"sync"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// sharedLogPair opens a keyword engine and a user engine over one
// stream under root: the keyword engine owns the log. syncFlush is both
// engines' Config.SyncFlush.
func sharedLogPair(t *testing.T, root string, budget int64, syncFlush bool) (*Stream, *Engine[string], *Engine[uint64]) {
	t.Helper()
	st := NewStream()
	kcfg := reclaimConfig(filepath.Join(root, "keyword"), budget, syncFlush, alloc.PolicyPooled)
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
		DecodeKey:     attr.UserDecode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       filepath.Join(root, "user"),
		Durable:       true,
		Policy:        core.New[uint64](),
		TrackOverK:    true,
		SyncFlush:     syncFlush,
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

// TestSharedLogReclaimIdleMember feeds two engines over one log records
// the user engine indexes one in 300 of: too few ever to fill its budget,
// so it never runs a flush cycle of its own, yet its records cover files
// the log would reclaim. Reclaim must not wait for it: the log references
// survivors out of those files and stays within three times the budgets
// it feeds.
func TestSharedLogReclaimIdleMember(t *testing.T) {
	const (
		budget = 24 << 10
		batch  = 8
	)
	total := 100 * budget / soakText
	st, kw, us := sharedLogPair(t, t.TempDir(), budget, true)
	defer st.Close()
	for i := 0; i < total; i += batch {
		mbs := soakBatch(i, batch)
		for j, mb := range mbs {
			if (i+j)%300 == 0 {
				mb.UserID = 1
			}
		}
		if _, err := kw.IngestBatch(mbs); err != nil {
			t.Fatal(err)
		}
		if ws := kw.wal.Stats(); ws.Bytes > 3*2*budget {
			t.Fatalf("after %d records a recovery reads %d bytes, over 3x the %d the log feeds", i+batch, ws.Bytes, 2*budget)
		}
	}
	if ust := us.Stats(); ust.Metrics.Flushes != 0 || us.store.Len() == 0 {
		t.Fatalf("the user engine ran %d flush cycles over %d records, want none over some", ust.Metrics.Flushes, us.store.Len())
	}
	if err := kw.Err(); err != nil {
		t.Fatal(err)
	}
	if ws := kw.wal.Stats(); ws.ReferencedRecords == 0 || ws.ReclaimedBytes == 0 {
		t.Fatalf("the idle member stalled the shared log's reclaim: %+v", ws)
	}
}

// TestSharedLogReclaimConcurrent runs two engines over one log with
// background flushing and two writers, so the two engines' flush cycles
// end at once and list each other's survivors while both ingest; run it
// under -race. At quiescence the log's covers are the two engines'
// resident records, and files have drained.
func TestSharedLogReclaimConcurrent(t *testing.T) {
	const (
		budget  = 24 << 10
		writers = 2
		batch   = 8
	)
	perWriter := 50 * budget / soakText
	st, kw, us := sharedLogPair(t, t.TempDir(), budget, false)
	defer st.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i += batch {
				mbs := soakBatch(w*perWriter+i, batch)
				for j, mb := range mbs {
					if (i+j)%2 == 1 {
						mb.UserID = uint64(1 + (i+j)%5)
					}
				}
				if _, err := kw.IngestBatch(mbs); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				// Without a pause flushing is outrun and memory, not the
				// log, holds everything: each batch waits for one cycle,
				// of either engine in turn.
				flush := []func() (int64, error){kw.FlushNow, us.FlushNow}[i/batch%2]
				if _, err := flush(); err != nil {
					t.Errorf("writer %d: FlushNow: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, flush := range []func() (int64, error){kw.FlushNow, us.FlushNow} {
		if _, err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{kw.Err(), us.Err()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	ws := kw.wal.Stats()
	if resident := kw.store.Len() + us.store.Len(); ws.LiveRecords != resident {
		t.Fatalf("at quiescence %d covers for %d memory-resident records", ws.LiveRecords, resident)
	}
	if ws.ReclaimedBytes == 0 {
		t.Fatalf("nothing reclaimed under load: %+v", ws)
	}
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
	st, kw, us := sharedLogPair(t, root, budget, true)
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
	st2, kw2, us2 := sharedLogPair(t, crash, budget, true)
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
