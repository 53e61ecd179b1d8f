package disk

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/trace"
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
	tier := fastTier(t, Config[string]{})
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

// TestSearchConcurrentCallers hammers Search from many goroutines over
// one uncompacted tier (shared cache, counters and segment references);
// run with -race.
func TestSearchConcurrentCallers(t *testing.T) {
	tier := fastTier(t, Config[string]{MaxSegments: -1})
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

// TestSearchTraceDeterministic pins the miss path's execution record: a
// fixed query over a fixed segment list consults the segments newest
// first, prunes exactly those whose best score cannot beat the kth
// result in hand, and reads the same records — whatever GOMAXPROCS is
// and however many callers search at once. (Under the parallel searcher
// this test replaced, which segments were pruned and in what order they
// were reported depended on goroutine scheduling.)
func TestSearchTraceDeterministic(t *testing.T) {
	// 12 segments of 8 records, scores rising with the ID, so the newest
	// three segments fill a top-20 and every older one is pruned unread.
	// The cache is off: every search pays its own record reads.
	const segments, per, k = 12, 8, 20
	type step struct {
		Segment             string
		Pruned, BloomPassed bool
		DirProbes, Read     int
	}
	probe := func(tier *Tier[string]) ([]step, int) {
		dp := &trace.DiskProbe{}
		items, err := tier.SearchTraced([]string{"common"}, query.OpSingle, k, dp)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		if len(items) != k || dp.Items != k {
			t.Errorf("got %d items (probe says %d), want %d", len(items), dp.Items, k)
		}
		steps := make([]step, len(dp.Segments))
		for i, sp := range dp.Segments {
			steps[i] = step{sp.Segment, sp.Pruned, sp.BloomPassed, sp.DirProbes, sp.RecordsRead}
		}
		return steps, dp.RecordsRead
	}

	tier := fastTier(t, Config[string]{MaxSegments: -1, CacheBytes: -1})
	fillSegments(t, tier, segments, per)
	want, wantReads := probe(tier)
	if len(want) != segments {
		t.Fatalf("probe lists %d segments, want %d", len(want), segments)
	}
	for i, st := range want {
		if i > 0 && st.Segment >= want[i-1].Segment {
			t.Fatalf("probe %d (%s) is not older than probe %d (%s): not newest-first", i, st.Segment, i-1, want[i-1].Segment)
		}
		if unread := i >= 3; st.Pruned != unread || (st.Read > 0) == unread {
			t.Fatalf("probe %d = %+v: the newest three segments are read, the rest pruned", i, st)
		}
	}
	if wantReads != k+4 { // 8 + 8 + 8: the third segment is read whole before the merge cuts at k
		t.Fatalf("records read = %d, want %d", wantReads, k+4)
	}

	// A second tier built the same way, and concurrent callers on the
	// first, must produce the identical record.
	twin := fastTier(t, Config[string]{MaxSegments: -1, CacheBytes: -1})
	fillSegments(t, twin, segments, per)
	before := tier.Stats().RecordReads
	var wg sync.WaitGroup
	const callers = 6
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			on := tier
			if g == 0 {
				on = twin
			}
			got, reads := probe(on)
			if reads != wantReads || !reflect.DeepEqual(got, want) {
				t.Errorf("caller %d: trace differs (reads %d vs %d):\n got %+v\nwant %+v", g, reads, wantReads, got, want)
			}
		}(g)
	}
	wg.Wait()
	if got := tier.Stats().RecordReads - before; got != int64((callers-1)*wantReads) {
		t.Fatalf("tier counted %d record reads for %d searches of %d", got, callers-1, wantReads)
	}
}
