package index

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/store"
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
	if c := ix.Departed("x"); !math.IsInf(c, -1) {
		t.Fatalf("never-seen key has ceiling %g, want -Inf", c)
	}
	recs := make([]*store.Record, 8)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(10*(i+1))) // scores 10..80
		ix.Insert("x", recs[i])
	}
	e := ix.Entry("x")
	ceilingIs := func(step string, want float64) {
		t.Helper()
		if _, _, got := e.Probe(1); got != want {
			t.Fatalf("after %s: ceiling %g, want %g", step, got, want)
		}
	}
	ceilingIs("ingest", math.Inf(-1))

	// Phase 1 keeps 30 (the retention rule) and trims 10 and 20 ... 60.
	e.Remove(2, BeyondTopK, func(r *store.Record) bool { return r.Score == 30 })
	ceilingIs("a trim", 60)
	if e.RemoveRecord(recs[2], 2) > 0 { // 30, below the ceiling: no change
		ceilingIs("removing a lower posting", 60)
	} else {
		t.Fatal("RemoveRecord(30) found nothing")
	}
	if freed := e.RemoveRecord(recs[7], 2); freed == 0 || e.IsDead() {
		t.Fatalf("RemoveRecord(80) freed %d, dead %v", freed, e.IsDead())
	}
	ceilingIs("removing the best posting", 80)
	ix.Insert("x", recs[7])
	if removed, _ := e.Remove(2, AllPostings, func(r *store.Record) bool { return r.Score == 80 }); len(removed) != 1 || e.Len() != 1 {
		t.Fatalf("removing all but 80 removed %d, retained %d; want 1 and 1", len(removed), e.Len())
	}
	ceilingIs("removing all but one", 80)
	if !math.IsInf(ix.Departed("x"), -1) {
		t.Fatal("a live entry published its ceiling")
	}
	if _, freed := e.Remove(2, AllPostings, nil); freed == 0 || !e.IsDead() {
		t.Fatal("removing every posting left the entry alive")
	}
	if c := ix.Departed("x"); c != 80 {
		t.Fatalf("dead entry left ceiling %g in the departure record, want 80", c)
	}

	// The key's next entry starts from the departed ceiling; a lower
	// posting then is not the key's exact top 1.
	ix.Insert("x", rec(100, 5))
	next := ix.Entry("x")
	if next == e {
		t.Fatal("dead entry reused")
	}
	if top, n, c := next.Probe(1); n != 1 || c != 80 || top[0].Score != 5 {
		t.Fatalf("new entry: %d postings, ceiling %g; want 1 posting under ceiling 80", n, c)
	}
	if c := ix.Departed("y"); !math.IsInf(c, -1) {
		t.Fatalf("unrelated key y has ceiling %g", c)
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
		ix.Depart(key, float64(i))
		published = append(published, float64(i))
		if c := ix.Departed(key); c < float64(i) {
			t.Fatalf("key %q departed at %d reads ceiling %g", key, i, c)
		}
	}
	for i := 0; i < 50; i++ {
		key := "never" + string(rune('a'+i))
		if c := ix.Departed(key); !slices.Contains(published, c) {
			t.Fatalf("key %q reads ceiling %g nobody published", key, c)
		}
	}
}

// TestConcurrentCeilingCoversDepartures races writers that insert, trim
// and evict whole entries of a few keys against readers that probe them
// as a search does. Once a removal has returned, every later read of the
// key's ceiling — from its live entry, a dead one still in the map, or
// the departure record once the entry is gone — is at least the best
// score that removal took. (Ceilings read need not rise monotonically:
// the record is shared, so an absent key may read a colliding key's
// higher ceiling and its next entry a lower, still safe, one.)
func TestConcurrentCeilingCoversDepartures(t *testing.T) {
	ix, _ := newTestIndex(3, false)
	keys := []string{"a", "b", "c"}
	// gone[i] is the best score removed from keys[i], raised only after
	// the removal returns.
	var gone [3]atomic.Int64
	for i := range gone {
		gone[i].Store(-1)
	}
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
					removed, _ = e.Remove(3, BeyondTopK, nil)
				case 6:
					removed, _ = e.Remove(3, AllPostings, nil)
				}
				for _, r := range removed {
					for best := gone[ki].Load(); int64(r.Score) > best && !gone[ki].CompareAndSwap(best, int64(r.Score)); {
						best = gone[ki].Load()
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for ki, key := range keys {
					floor := float64(gone[ki].Load())
					// The order a search reads in: the map, then — for
					// an absent key — the departure record.
					var c float64
					if e := ix.Entry(key); e != nil {
						_, _, c = e.Probe(3)
					} else {
						c = ix.Departed(key)
					}
					if floor >= 0 && c < floor {
						t.Errorf("key %q: ceiling %g below the %g a finished removal took", key, c, floor)
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
