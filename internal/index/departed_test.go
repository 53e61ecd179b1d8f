package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/store"
	"kflushing/internal/types"
)

// TestCeilingEncodingOrder checks that encoded ceilings order as their
// scores do, that zero sits below every score (−∞ included), and that
// every score decodes back.
func TestCeilingEncodingOrder(t *testing.T) {
	scores := []float64{math.Inf(-1), -1e300, -2.5, -0.5, 0, 1e-300, 0.5, 7, 1.099511627776e12, math.Inf(1)}
	var prev ceiling
	for _, s := range scores {
		c := ceilingOf(s)
		if c <= prev {
			t.Fatalf("ceilingOf(%g) = %#x, not above %#x", s, c, prev)
		}
		if got := c.score(); got != s {
			t.Fatalf("ceilingOf(%g) decodes to %g", s, got)
		}
		prev = c
	}
	if got := ceiling(0).score(); !math.IsInf(got, -1) {
		t.Fatalf("zero ceiling decodes to %g, want -Inf", got)
	}
}

// TestCeilingRaisedByEveryRemoval walks a key through each way a posting
// leaves memory and checks the ceiling after each: it is the best score
// that left, it never falls, it survives the entry's death in the
// departure record, and the key's next entry starts from it.
func TestCeilingRaisedByEveryRemoval(t *testing.T) {
	ix, _ := newTestIndex(2, true)
	if c := ix.Departed("x"); !c.Complete() {
		t.Fatalf("never-seen key has ceiling %+v, want complete", c)
	}
	recs := make([]*store.Record, 8)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(10*(i+1))) // scores 10..80
		ix.Insert("x", recs[i])
	}
	e := ix.Entry("x")
	ceilingIs := func(step string, want Bound) {
		t.Helper()
		if _, _, got := e.Probe(1); got != want {
			t.Fatalf("after %s: ceiling %+v, want %+v", step, got, want)
		}
	}
	ceilingIs("ingest", none)

	// Phase 1 keeps 30 (the retention rule) and trims 10 and 20 ... 60.
	e.Remove(2, BeyondTopK, func(r *store.Record) bool { return r.Score == 30 })
	ceilingIs("a trim", Bound{60, 6})
	if e.RemoveRecord(recs[2], 2) > 0 { // 30, below the ceiling: no change
		ceilingIs("removing a lower posting", Bound{60, 6})
	} else {
		t.Fatal("RemoveRecord(30) found nothing")
	}
	if freed := e.RemoveRecord(recs[7], 2); freed == 0 || e.IsDead() {
		t.Fatalf("RemoveRecord(80) freed %d, dead %v", freed, e.IsDead())
	}
	ceilingIs("removing the best posting", Bound{80, 8})
	ix.Insert("x", recs[7])
	if removed, _, _ := e.Remove(2, AllPostings, func(r *store.Record) bool { return r.Score == 80 }); len(removed) != 1 || e.Len() != 1 {
		t.Fatalf("removing all but 80 removed %d, retained %d; want 1 and 1", len(removed), e.Len())
	}
	ceilingIs("removing all but one", Bound{80, 8})
	if !ix.Departed("x").Complete() {
		t.Fatal("a live entry published its ceiling")
	}
	if _, freed, _ := e.Remove(2, AllPostings, nil); freed == 0 || !e.IsDead() {
		t.Fatal("removing every posting left the entry alive")
	}
	if c := ix.Departed("x"); c.Score != 80 {
		t.Fatalf("dead entry left ceiling %+v in the departure record, want score 80", c)
	}

	// The key's next entry starts from the departed ceiling; a lower
	// posting then is not the key's exact top 1.
	ix.Insert("x", rec(100, 5))
	next := ix.Entry("x")
	if next == e {
		t.Fatal("dead entry reused")
	}
	if top, n, c := next.Probe(1); n != 1 || c.Score != 80 || top[0].Score != 5 {
		t.Fatalf("new entry: %d postings, ceiling %+v; want 1 posting under ceiling 80", n, c)
	}
	if c := ix.Departed("y"); !c.Complete() {
		t.Fatalf("unrelated key y has ceiling %+v", c)
	}
}

// TestCeilingBreaksTiesByID checks the ceiling ranks by (score, ID), so
// a posting that ties what left memory on score is provably above it
// when its ID is higher: after a tied removal of the entry's own; after
// a copy from the score-only departure record, stamped with the highest
// ID linked; and after seeding, as Open does over a disk tier.
func TestCeilingBreaksTiesByID(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	for id := uint64(1); id <= 3; id++ {
		ix.Insert("x", rec(id, 10))
	}
	e := ix.Entry("x")
	if removed, _, _ := e.Remove(2, BeyondTopK, nil); len(removed) != 1 || removed[0].MB.ID != 1 {
		t.Fatalf("trim removed %v, want record 1", removed)
	}
	top, _, c := e.Probe(2)
	if c != (Bound{10, 1}) || !c.Below(top[1].Score, top[1].MB.ID) {
		t.Fatalf("after a tied trim: ceiling %+v, k-th %d; want {10 1} below record 2", c, top[1].MB.ID)
	}

	// The entry dies; the record keeps score 10 only. Records linked
	// elsewhere since raise the ID a copy is stamped with.
	if _, freed, _ := e.Remove(2, AllPostings, nil); freed == 0 || !e.IsDead() {
		t.Fatal("removing every posting left the entry alive")
	}
	ix.Insert("y", rec(50, 99))
	if c := ix.Departed("x"); c != (Bound{10, 50}) {
		t.Fatalf("departed x reads %+v, want {10 50}: its score, the highest ID linked", c)
	}
	ix.Insert("x", rec(60, 10))
	ix.Insert("x", rec(40, 10)) // a late arrival with a lower ID
	top, _, c = ix.Entry("x").Probe(2)
	if c != (Bound{10, 50}) || !c.Below(top[0].Score, top[0].MB.ID) || c.Below(top[1].Score, top[1].MB.ID) {
		t.Fatalf("re-created x: ceiling %+v over %d, %d; want {10 50} below 60 only", c, top[0].MB.ID, top[1].MB.ID)
	}

	// Seeding: a fresh index over a tier whose highest record ID is 100.
	ix, _ = newTestIndex(2, false)
	ix.Depart("z", 7, 100)
	if c := ix.Departed("z"); c != (Bound{7, 100}) {
		t.Fatalf("seeded z reads %+v, want {7 100}", c)
	}
	ix.Insert("z", rec(101, 7))
	if _, _, c := ix.Entry("z").Probe(1); c != (Bound{7, 100}) || !c.Below(7, 101) || c.Below(7, 100) {
		t.Fatalf("z's entry copied %+v, want {7 100}: below 101 at score 7, not 100", c)
	}
	if c := ix.Departed("w"); !c.Complete() {
		t.Fatalf("unseeded key w reads %+v, want complete", c)
	}
}

// TestDepartedSizing pins the departure record's footprint: the largest
// power of two within the bytes given, split evenly between filter and
// slots — 2^20 bits and 2^14 slots for a 16 MiB budget's 1/64.
func TestDepartedSizing(t *testing.T) {
	d := newDepartures(16 << 20 / 64)
	if len(d.bits)*64 != 1<<20 || len(d.slots) != 1<<14 || d.Bytes() != 256<<10 {
		t.Fatalf("16 MiB budget: %d bits, %d slots, %d bytes", len(d.bits)*64, len(d.slots), d.Bytes())
	}
	for _, n := range []int64{0, 15, 16, 17, 1000, 48 << 10 / 64, 64 << 20 / 64} {
		got := newDepartures(n).Bytes()
		if got > max(n, minDepartedBytes) || got*2 <= n {
			t.Errorf("%d bytes given: record takes %d", n, got)
		}
	}
}

// TestDepartedLossyOnlyUpward fills a tiny record with many departed
// keys: a key that departed always reads at least its own ceiling, and
// a key that never did reads either −∞ or some colliding key's ceiling,
// never less than −∞ and never a value no key published.
func TestDepartedLossyOnlyUpward(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	ix.departed = newDepartures(64)
	published := []float64{math.Inf(-1)}
	for i := 0; i < 200; i++ {
		key := string(rune('a'+i%26)) + string(rune('a'+i/26))
		ix.Depart(key, float64(i), types.ID(i+1))
		published = append(published, float64(i))
		if c := ix.Departed(key); c.Score < float64(i) || c.ID < types.ID(i+1) {
			t.Fatalf("key %q departed at %d reads ceiling %+v", key, i, c)
		}
	}
	for i := 0; i < 50; i++ {
		key := "never" + string(rune('a'+i))
		if c := ix.Departed(key); !slices.Contains(published, c.Score) {
			t.Fatalf("key %q reads ceiling %+v nobody published", key, c)
		}
	}
}

// TestConcurrentCeilingCoversDepartures races writers that insert, trim
// and evict whole entries of a few keys against readers that probe them
// as a search does. Once a removal has returned, every later read of the
// key's ceiling — from its live entry, a dead one still in the map, or
// the departure record once the entry is gone — ranks at least as high
// as the best posting that removal took, its ID included: writers share
// scores, so ties are common. (Ceilings read need not rise
// monotonically: the record is shared, so an absent key may read a
// colliding key's higher ceiling and its next entry a lower, still safe,
// one.)
func TestConcurrentCeilingCoversDepartures(t *testing.T) {
	ix, _ := newTestIndex(3, false)
	keys := []string{"a", "b", "c"}
	// gone[i] is the best posting removed from keys[i], raised only
	// after the removal returns.
	var goneMu sync.Mutex
	gone := [3]Bound{none, none, none}
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 3000; i++ {
				ki := (i + w) % len(keys)
				ix.Insert(keys[ki], rec(uint64(w*100000+i+1), int64(i)))
				e := ix.Entry(keys[ki])
				if e == nil {
					continue
				}
				var removed []*store.Record
				switch i % 7 {
				case 3:
					removed, _, _ = e.Remove(3, BeyondTopK, nil)
				case 6:
					removed, _, _ = e.Remove(3, AllPostings, nil)
				}
				goneMu.Lock()
				for _, r := range removed {
					if gone[ki].Below(r.Score, r.MB.ID) {
						gone[ki] = Bound{r.Score, r.MB.ID}
					}
				}
				goneMu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for ki, key := range keys {
					goneMu.Lock()
					floor := gone[ki]
					goneMu.Unlock()
					// The order a search reads in: the map, then — for
					// an absent key — the departure record.
					var c Bound
					if e := ix.Entry(key); e != nil {
						_, _, c = e.Probe(3)
					} else {
						c = ix.Departed(key)
					}
					if c.Below(floor.Score, floor.ID) {
						t.Errorf("key %q: ceiling %+v below the %+v a finished removal took", key, c, floor)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
}
