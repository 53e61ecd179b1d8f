package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
)

// TestDiskSearchAccounting checks every disk-consulting query counts
// exactly one disk search, and that concurrent identical misses return
// consistent answers — with the slow-query threshold unset and set: a
// threshold no search reaches must change neither how a miss is served
// nor what a memory hit allocates.
func TestDiskSearchAccounting(t *testing.T) {
	hitAllocs := map[int64]float64{}
	for _, threshold := range []int64{0, time.Hour.Nanoseconds()} {
		t.Run(fmt.Sprintf("slow-query=%s", time.Duration(threshold)), func(t *testing.T) {
			eng, err := New(Config[string]{
				K:              5,
				MemoryBudget:   8 << 10,
				FlushFraction:  0.2,
				Attr:           attr.Keyword(),
				Clock:          clock.NewLogical(1, 1),
				DiskDir:        t.TempDir(),
				Policy:         policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
				SyncFlush:      true,
				SlowQueryNanos: threshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			// Overfill memory so the one-off filler keys are flushed; the hot
			// "gopher" postings stay resident (kFlushing keeps top-k), so the
			// guaranteed-miss queries below target a filler key instead.
			for i := 0; i < 300; i++ {
				ingest(t, eng, int64(i+1), "gopher", fmt.Sprintf("filler%d", i))
			}
			if _, err := eng.FlushNow(); err != nil {
				t.Fatal(err)
			}

			// filler7 appears in exactly one record; asking for K=5 can never be
			// satisfied from memory, so every query consults disk.
			miss := query.Request[string]{Keys: []string{"filler7"}, K: 5}
			const goroutines, perG = 8, 20
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						res, err := eng.Search(miss)
						if err != nil {
							t.Error(err)
							return
						}
						if len(res.Items) == 0 {
							t.Error("filler7 query returned no items")
							return
						}
					}
				}()
			}
			wg.Wait()

			snap := eng.Metrics().Snap()
			misses := snap.Misses
			if misses == 0 {
				t.Fatal("no memory misses; the disk fallback was never exercised")
			}
			if snap.DiskSearches != misses {
				t.Fatalf("%d disk searches for %d misses, want one per miss", snap.DiskSearches, misses)
			}
			if snap.DiskSearchesCoalesced != 0 {
				t.Fatalf("DiskSearchesCoalesced = %d: no miss shares another's disk search", snap.DiskSearchesCoalesced)
			}

			hit := query.Request[string]{Keys: []string{"gopher"}, K: 5}
			if res, err := eng.Search(hit); err != nil || !res.MemoryHit {
				t.Fatalf("gopher search: hit=%v err=%v, want a memory hit", res.MemoryHit, err)
			}
			hitAllocs[threshold] = testing.AllocsPerRun(200, func() { _, _ = eng.Search(hit) })
			for _, ev := range eng.Blackbox().Events() {
				if ev.Event == "query_slow" {
					t.Fatalf("query_slow below the threshold: %+v", ev)
				}
			}
		})
	}
	if len(hitAllocs) == 2 && hitAllocs[0] != hitAllocs[time.Hour.Nanoseconds()] {
		t.Fatalf("a memory-hit search allocates %.1f objects without a slow-query threshold, %.1f with one",
			hitAllocs[0], hitAllocs[time.Hour.Nanoseconds()])
	}
}
