package disk

import (
	"fmt"
	"sync"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

func fastTier(t *testing.T, cfg Config[string]) *Tier[string] {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.KeysOf == nil {
		cfg.KeysOf = func(m *types.Microblog) []string { return m.Keywords }
	}
	if cfg.Encode == nil {
		cfg.Encode = func(s string) string { return s }
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// fillSegments flushes `segments` batches of `per` records each with a
// per-record key and one shared "common" key. Tests whose point is the
// segment count open their tier with MaxSegments: -1 so every batch
// stays its own segment.
func fillSegments(t *testing.T, tier *Tier[string], segments, per int) {
	t.Helper()
	id := uint64(0)
	for s := 0; s < segments; s++ {
		recs := make([]FlushRecord, per)
		for i := range recs {
			id++
			recs[i] = fr(id, float64(id), fmt.Sprintf("k%d", id), "common")
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBloomSkipsDirectoryProbes is the headline acceptance check: a key
// absent from every segment must skip at least 90% of the per-segment
// directory probes via the Bloom filters.
func TestBloomSkipsDirectoryProbes(t *testing.T) {
	tier := fastTier(t, Config[string]{MaxSegments: -1})
	fillSegments(t, tier, 16, 50)
	if got := tier.Stats().Segments; got != 16 {
		t.Fatalf("segments = %d, want 16", got)
	}

	for i := 0; i < 8; i++ {
		items, err := tier.Search([]string{fmt.Sprintf("absent-%d", i)}, query.OpSingle, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 0 {
			t.Fatalf("absent key returned %d items", len(items))
		}
	}
	st := tier.Stats()
	total := st.BloomSkips + st.DirProbes
	if total == 0 {
		t.Fatal("no probes recorded")
	}
	if rate := float64(st.BloomSkips) / float64(total); rate < 0.9 {
		t.Fatalf("bloom skipped %.1f%% of directory probes (%d of %d), want >= 90%%",
			100*rate, st.BloomSkips, total)
	}
}

// TestBloomSkipsForAndOr checks multi-key operators take the fast path:
// AND with one absent key skips the segment, OR probes only present
// keys.
func TestBloomSkipsForAndOr(t *testing.T) {
	tier := fastTier(t, Config[string]{})
	fillSegments(t, tier, 8, 20)

	items, err := tier.Search([]string{"common", "absent"}, query.OpAnd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("AND with absent key returned %d items", len(items))
	}
	st := tier.Stats()
	if st.BloomSkips == 0 {
		t.Fatal("AND query produced no bloom skips")
	}

	items, err = tier.Search([]string{"common", "absent"}, query.OpOr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 {
		t.Fatalf("OR query found %d items, want 10", len(items))
	}
}

// TestRecordCacheServesHotKeys checks repeated misses for the same key
// stop paying preads once the records are cached.
func TestRecordCacheServesHotKeys(t *testing.T) {
	// Sequential search: the parallel fan-out prunes segments by timing,
	// so which records a repeat search reads (not what it answers) varies.
	tier := fastTier(t, Config[string]{SearchParallelism: 1})
	fillSegments(t, tier, 4, 25)

	if _, err := tier.Search([]string{"common"}, query.OpSingle, 10); err != nil {
		t.Fatal(err)
	}
	cold := tier.Stats()
	if cold.RecordReads == 0 {
		t.Fatal("cold search performed no preads")
	}
	for i := 0; i < 5; i++ {
		if _, err := tier.Search([]string{"common"}, query.OpSingle, 10); err != nil {
			t.Fatal(err)
		}
	}
	hot := tier.Stats()
	if hot.RecordReads != cold.RecordReads {
		t.Fatalf("hot searches still performed preads: %d -> %d", cold.RecordReads, hot.RecordReads)
	}
	if hot.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if hot.CacheBytes == 0 {
		t.Fatal("cache reports zero resident bytes")
	}
}

// TestRecordCacheEvictsByByteBudget forces a tiny budget and checks the
// cache evicts instead of growing without bound.
func TestRecordCacheEvictsByByteBudget(t *testing.T) {
	tier := fastTier(t, Config[string]{CacheBytes: 4096})
	fillSegments(t, tier, 6, 40)

	// Touch many distinct keys so inserts exceed the budget.
	for id := uint64(1); id <= 200; id++ {
		if _, err := tier.Search([]string{fmt.Sprintf("k%d", id)}, query.OpSingle, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := tier.Stats()
	if st.CacheEvictions == 0 {
		t.Fatal("tiny cache never evicted")
	}
	if st.CacheBytes > 4096 {
		t.Fatalf("cache resident %d bytes exceeds 4096 budget", st.CacheBytes)
	}
}

// TestCacheDisabled checks a negative budget turns the cache off.
func TestCacheDisabled(t *testing.T) {
	tier := fastTier(t, Config[string]{CacheBytes: -1})
	fillSegments(t, tier, 2, 10)
	for i := 0; i < 3; i++ {
		if _, err := tier.Search([]string{"common"}, query.OpSingle, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := tier.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheBytes != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
	if st.RecordReads == 0 {
		t.Fatal("searches performed no reads")
	}
}

// TestParallelSearchMatchesSequential checks the fan-out path returns
// exactly the sequential answers for every operator.
func TestParallelSearchMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	seq := fastTier(t, Config[string]{Dir: dir, SearchParallelism: 1, MaxSegments: -1})
	fillSegments(t, seq, 12, 30)

	par := fastTier(t, Config[string]{Dir: dir, SearchParallelism: 8, MaxSegments: -1})
	if got := par.Stats().Segments; got != 12 {
		t.Fatalf("segments = %d, want 12 to fan out over", got)
	}

	queries := []struct {
		keys []string
		op   query.Op
		k    int
	}{
		{[]string{"common"}, query.OpSingle, 20},
		{[]string{"k5"}, query.OpSingle, 5},
		{[]string{"absent"}, query.OpSingle, 5},
		{[]string{"k5", "k200", "absent"}, query.OpOr, 10},
		{[]string{"common", "k17"}, query.OpAnd, 10},
	}
	for _, q := range queries {
		want, err := seq.Search(q.keys, q.op, q.k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Search(q.keys, q.op, q.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v %v: %d items parallel vs %d sequential", q.keys, q.op, len(got), len(want))
		}
		for i := range got {
			if got[i].MB.ID != want[i].MB.ID || got[i].Score != want[i].Score {
				t.Fatalf("%v %v item %d: parallel (%d,%g) vs sequential (%d,%g)",
					q.keys, q.op, i, got[i].MB.ID, got[i].Score, want[i].MB.ID, want[i].Score)
			}
		}
	}
}

// TestParallelSearchConcurrent hammers the parallel path from many
// goroutines; run with -race.
func TestParallelSearchConcurrent(t *testing.T) {
	tier := fastTier(t, Config[string]{SearchParallelism: 4, MaxSegments: -1})
	fillSegments(t, tier, 10, 20)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				items, err := tier.Search([]string{"common"}, query.OpSingle, 20)
				if err != nil {
					t.Error(err)
					return
				}
				if len(items) != 20 {
					t.Errorf("got %d items, want 20", len(items))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
