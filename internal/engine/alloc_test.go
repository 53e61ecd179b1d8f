package engine

import (
	"fmt"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// allocEngine builds a sync-flush engine under the given allocator
// policy with a budget small enough that warm-up flushing stocks the
// record recycler and posting pool.
func allocEngine(t *testing.T, ap alloc.Policy) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  256 << 10,
		FlushFraction: 0.25,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:     true,
		AllocPolicy:   ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return eng
}

// TestIngestBatchAllocsPooled pins the steady-state allocation ceiling
// of IngestBatch under the pooled policy. The measured loop still
// allocates what it must — the caller-visible ID slice, one Microblog
// struct per record — but record wrappers come from the recycler,
// posting-array growth from the slab pool, and batch scratch from the
// per-engine arena, so the engine's own contribution stays bounded. The
// ceiling (3 allocations per record, measured ~1.5 with flushes
// landing inside the window) is what future PRs must not regress.
func TestIngestBatchAllocsPooled(t *testing.T) {
	eng := allocEngine(t, alloc.PolicyPooled)
	const batch = 16
	// A fixed hot vocabulary: entries reach their steady capacity class
	// during warm-up and stay there. Keyword slices are subslices of one
	// backing array so the measured loop doesn't allocate them.
	kws := make([]string, 64)
	for i := range kws {
		kws[i] = fmt.Sprintf("hot%02d", i)
	}
	ts := 0
	run := func() {
		mbs := make([]*types.Microblog, batch)
		for i := range mbs {
			ts++
			w := ts % len(kws)
			mbs[i] = &types.Microblog{
				Timestamp: types.Timestamp(ts),
				Keywords:  kws[w : w+1],
				Text:      "steady-state ingest body",
			}
		}
		if _, err := eng.IngestBatch(mbs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past several budget-triggered flush cycles so the
	// recycler and slab pool hold stock, then flush the live set down
	// so the measured window rides between cycles.
	for i := 0; i < 400; i++ {
		run()
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, run)
	perRecord := avg / batch
	t.Logf("IngestBatch batch=%d: %.1f allocs/op, %.2f allocs/record", batch, avg, perRecord)
	if perRecord > 3 {
		t.Errorf("IngestBatch allocates %.2f objects/record under pooled, ceiling 3", perRecord)
	}
	slices, recs := eng.AllocStats()
	if slices.Reuses == 0 || recs.Reuses == 0 {
		t.Fatalf("pools never reused (slices %+v, records %+v): test is not measuring the pooled path", slices, recs)
	}
}

// TestSearchHitAllocs pins the allocation ceiling of a kFlushing
// single-key memory hit. kFlushing observes no query accesses, so the
// search builds no record map and no touched list for the policy: what
// is left is the key list, the probed postings and their items.
func TestSearchHitAllocs(t *testing.T) {
	eng := allocEngine(t, alloc.PolicyPooled)
	for ts := int64(1); ts <= 10; ts++ {
		ingest(t, eng, ts, "hot")
	}
	req := query.Request[string]{Keys: []string{"hot"}, K: 5}
	var res query.Result
	avg := testing.AllocsPerRun(100, func() {
		var err error
		if res, err = eng.Search(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("single-key hit: %.1f allocs/op", avg)
	if !res.MemoryHit || len(res.Items) != 5 {
		t.Fatalf("search = %d items, hit %v; want a 5-item memory hit", len(res.Items), res.MemoryHit)
	}
	if avg > 3 {
		t.Errorf("a single-key memory hit allocates %.1f objects, ceiling 3", avg)
	}
}
