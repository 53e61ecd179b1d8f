package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/attr"
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
// power of two within the bytes given — 256 KiB for a 16 MiB budget's
// 1/64.
func TestDepartedSizing(t *testing.T) {
	d := newDepartures(16 << 20 / 64)
	if d.Bytes() != 256<<10 {
		t.Fatalf("16 MiB budget: %d bytes", d.Bytes())
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
	ix.departed = newDepartures(128)
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

// departOp publishes one departure: key number key at score, with the
// next record ID.
type departOp struct {
	key   int
	score float64
}

// checkDepartedShadow publishes ops into a fresh index whose departure
// record is recBytes, against an exact shadow of every key's true
// bound. After each publish, every key of nkeys reads at or above its
// true (score, ID) bound. While nothing has been folded into a floor and
// no two departed keys share a fingerprint in one bucket, every
// read is exact: a departed key reads its own score, stamped with the
// highest ID linked, and a key that never departed reads complete. It
// returns how many publishes were checked exactly and whether the
// record ended folded.
func checkDepartedShadow(t testing.TB, recBytes int64, nkeys int, ops []departOp) (exactOps int, folded bool) {
	ix, _ := newTestIndex(2, false)
	ix.departed = newDepartures(recBytes)
	d := ix.departed
	key := func(i int) string { return fmt.Sprintf("key%d", i) }
	probes := make([]probe, nkeys)
	for i := range probes {
		probes[i] = d.probes(attr.HashString(key(i)))
	}
	// sharing[i] counts the departed keys other than i that carry i's
	// fingerprint in i's bucket: any of them can raise i's read.
	sharing := make([]int, nkeys)
	anyShared := false
	shadow := make(map[int]Bound)
	for n, op := range ops {
		id := types.ID(n + 1)
		ix.Depart(key(op.key), op.score, id)
		b, ok := shadow[op.key]
		if !ok {
			for i, p := range probes {
				if i != op.key && p.sharesFingerprint(probes[op.key]) {
					sharing[i]++
					_, departed := shadow[i]
					anyShared = anyShared || departed
				}
			}
		}
		if !ok || b.Below(op.score, id) {
			shadow[op.key] = Bound{op.score, id}
		}
		exact := !d.folded() && !anyShared
		if exact {
			exactOps++
		}
		for i := 0; i < nkeys; i++ {
			got := ix.Departed(key(i))
			want, departed := shadow[i]
			if !departed {
				want = none
			}
			if got.Below(want.Score, want.ID) {
				t.Fatalf("%d-byte record, op %d: key %d reads %+v below its bound %+v", recBytes, n, i, got, want)
			}
			if !exact || sharing[i] > 0 {
				continue
			}
			if departed && got != (Bound{want.Score, id}) || !departed && !got.Complete() {
				t.Fatalf("%d-byte record, op %d: key %d reads %+v, want exactly %+v (departed %v)", recBytes, n, i, got, want, departed)
			}
		}
	}
	return exactOps, d.folded()
}

// folded reports whether any floor has been raised.
func (d *departures) folded() bool {
	for base := 0; base < len(d.ghosts); base += bucketWords {
		if d.ghosts[base].Load() != 0 {
			return true
		}
	}
	return false
}

// sharesFingerprint reports whether p and q have a fingerprint and a
// bucket in common.
func (p probe) sharesFingerprint(q probe) bool { return q.fp == p.fp && q.g == p.g }

// TestDepartedNeverBelowShadow runs randomized departures — repeated
// keys, score ties, negative scores — through records of 64 B to 1 KiB,
// which the distinct keys saturate: every read is at or above the key's
// true bound, and exact while the departed keys fit in the ghosts.
func TestDepartedNeverBelowShadow(t *testing.T) {
	exactOps, folds := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, size := range []int64{64, 128, 256, 512, 1024} {
			nkeys := 8 + r.Intn(120)
			ops := make([]departOp, 400)
			for i := range ops {
				ops[i] = departOp{key: r.Intn(nkeys), score: float64(r.Intn(40) - 10)}
			}
			exact, folded := checkDepartedShadow(t, size, nkeys, ops)
			exactOps += exact
			if folded {
				folds++
			}
		}
	}
	if exactOps == 0 || folds == 0 {
		t.Fatalf("%d publishes checked exactly, %d records folded: want both regimes", exactOps, folds)
	}
}

// TestDepartedExactWhileGhostsFit departs fewer distinct keys than one
// 1 KiB record's ghosts hold, so nothing folds: every read is exact.
func TestDepartedExactWhileGhostsFit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := make([]departOp, 300)
	for i := range ops {
		ops[i] = departOp{key: r.Intn(20), score: float64(r.Intn(1000))}
	}
	if exact, _ := checkDepartedShadow(t, 1024, 24, ops); exact != len(ops) {
		t.Fatalf("%d of %d publishes checked exactly", exact, len(ops))
	}
}

// FuzzDepartedNeverBelow drives checkDepartedShadow from arbitrary
// bytes: the first picks the record's size (64 B to 1 KiB), then each
// pair is a key (of 64) and a small signed score.
func FuzzDepartedNeverBelow(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 5, 2, 5})
	f.Add([]byte{4, 3, 200, 3, 100, 9, 0, 9, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		size := int64(64) << (b[0] % 5)
		b = b[1:]
		ops := make([]departOp, 0, len(b)/2)
		for i := 0; i+1 < len(b) && len(ops) < 512; i += 2 {
			ops = append(ops, departOp{key: int(b[i] % 64), score: float64(int8(b[i+1]))})
		}
		checkDepartedShadow(t, size, 64, ops)
	})
}

// TestDepartedCapped: a record asked for 16 GiB — a 1 TiB budget's
// 1/64 — takes no more than the cap.
func TestDepartedCapped(t *testing.T) {
	ix := New(Config[string]{Hash: attr.HashString, KeyLen: func(s string) int { return len(s) }, K: 2, DepartedBytes: 1 << 34})
	if got := ix.DepartedBytes(); got > maxDepartedBytes || got != 16<<20 {
		t.Fatalf("DepartedBytes() = %d, want the %d-byte cap", got, maxDepartedBytes)
	}
}

// TestGhostCeilingRoundsUp checks that a ghost reads back at or above
// the ceiling it was made from, exactly for scores with few mantissa
// bits, and that ghosts order as their ceilings do.
func TestGhostCeilingRoundsUp(t *testing.T) {
	scores := []float64{math.Inf(-1), -1e300, -1760000000000001, -56, -3, -0.1, 0, 0.1, 3, 56, 1760000000000001, 1e300, math.Inf(1)}
	var prev uint64
	for _, s := range scores {
		c := ceilingOf(s)
		g := ghostOf(c)
		back := ceilingOfGhost(g)
		if g == 0 || g <= prev || back < c {
			t.Fatalf("score %g: ceiling %#x, ghost %#x (previous %#x), read back %#x", s, c, g, prev, back)
		}
		if s == math.Trunc(s) && math.Abs(s) < 1<<37 && back != c {
			t.Fatalf("score %g reads back as %g", s, back.score())
		}
		prev = g
	}
}

// TestDepartedConcurrentFolds races publishers that overflow a
// one-bucket record — every publish past the seventh key folds a ghost
// into the floor — against lock-free readers: once a publish has
// returned, every read of its key is at or above it.
func TestDepartedConcurrentFolds(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	ix.departed = newDepartures(minDepartedBytes)
	const writers, keys = 3, 20
	var done [writers][keys]atomic.Int64 // the score a returned publish left, 0 for none
	key := func(w, j int) string { return fmt.Sprintf("w%d-%d", w, j) }
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 3000; i++ {
				j := (i * 7) % keys
				ix.Depart(key(w, j), float64(i), types.ID(w*10000+i))
				done[w][j].Store(int64(i))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				for w := 0; w < writers; w++ {
					for j := 0; j < keys; j++ {
						want := done[w][j].Load()
						if want == 0 {
							continue
						}
						if c := ix.Departed(key(w, j)); c.Score < float64(want) {
							t.Errorf("key %s reads %+v below the %d a returned publish left", key(w, j), c, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
}
