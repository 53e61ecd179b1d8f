package index

import (
	"fmt"
	"sync"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// newPooledTestIndex builds an index whose entries draw posting arrays
// from a slab pool under the given allocator policy (nil pool = heap).
func newPooledTestIndex(k int, ap alloc.Policy) *Index[string] {
	return New(Config[string]{
		Hash:       attr.HashString,
		KeyLen:     func(s string) int { return len(s) },
		K:          k,
		TrackOverK: true,
		Tracker:    &memsize.Tracker{},
		Pool:       alloc.NewSlicePool[*store.Record](ap),
	})
}

// TestEntryInsertSteadyStateAllocs pins the allocation ceiling of the
// hot digestion cycle — insert past k, trim back to k — at zero under
// the pooled policy. Steady state means the backing array oscillates
// between two capacity classes that both sit warm in the pool, the trim
// result slice comes from the pool, and no run of the cycle touches the
// heap. A future PR that reintroduces an allocation on this path fails
// here rather than silently regressing ingest.
func TestEntryInsertSteadyStateAllocs(t *testing.T) {
	pool := alloc.NewSlicePool[*store.Record](alloc.PolicyPooled)
	ix := New(Config[string]{
		Hash:      attr.HashString,
		KeyLen:    func(s string) int { return len(s) },
		TrackTopK: true,
		Pool:      pool,
	})
	e := ix.getOrCreate("k")
	const k = 8
	const step = 16

	// Pre-build the records outside the measured region; they cycle
	// through insert → trim → reinsert with refreshed scores, so the
	// measured loop never constructs one.
	recs := make([]*store.Record, 64*step)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(i+1))
	}
	next := 0
	var ts int64
	cycle := func() {
		for j := 0; j < step; j++ {
			r := recs[next%len(recs)]
			next++
			ts++
			r.MB.Timestamp = types.Timestamp(ts)
			r.Score = float64(ts)
			if ok, _ := e.insert(r, k); !ok {
				t.Fatal("entry unexpectedly dead")
			}
		}
		removed, _, _ := e.Remove(k, BeyondTopK, nil)
		pool.Put(removed)
	}
	// Warm-up: reach the steady capacity classes and stock the pool.
	for i := 0; i < 32; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("insert+trim cycle allocates %.2f objects/run under pooled, want 0", avg)
	}
	st := pool.Stats()
	if st.Reuses == 0 {
		t.Fatal("pool never reused an array: the cycle is not exercising recycling")
	}
}

// TestIndexConcurrentAllocPolicies is the index-level race surface for
// the slab pool: concurrent inserters and trimmers share one pool, with
// trimmed arrays recycled mid-flight, under both allocator policies.
// The assertions mirror TestConcurrentInsertAndTrim; the point is that
// -race sees the pool's hand-off paths.
func TestIndexConcurrentAllocPolicies(t *testing.T) {
	for _, ap := range []alloc.Policy{alloc.PolicyPooled, alloc.PolicyHeap} {
		ap := ap
		t.Run("alloc="+ap.String(), func(t *testing.T) {
			ix := newPooledTestIndex(10, ap)
			var wg sync.WaitGroup
			const n = 2000
			wg.Add(3)
			go func() {
				defer wg.Done()
				for i := 1; i <= n; i++ {
					ix.Insert(fmt.Sprintf("k%d", i%7), rec(uint64(i), int64(i)))
				}
			}()
			go func() {
				defer wg.Done()
				for i := n + 1; i <= 2*n; i++ {
					ix.Insert(fmt.Sprintf("k%d", i%7), rec(uint64(i), int64(i)))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					for _, e := range ix.TakeOverK() {
						removed, _, _ := e.Remove(10, BeyondTopK, nil)
						ix.RecyclePostings(removed)
					}
				}
			}()
			wg.Wait()
			var scan int64
			ix.Range(func(e *Entry[string]) bool {
				scan += int64(e.Len())
				return true
			})
			if scan != ix.Postings() {
				t.Fatalf("scan postings = %d, counter = %d", scan, ix.Postings())
			}
			if ap == alloc.PolicyPooled {
				if st := ix.PoolStats(); st.Puts == 0 {
					t.Fatal("pooled run never returned an array to the pool")
				}
			}
		})
	}
}
