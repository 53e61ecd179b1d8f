package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kflushing/internal/attr"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

func newTestIndex(k int, trackTopK bool) (*Index[string], *memsize.Tracker) {
	tr := &memsize.Tracker{}
	ix := New(Config[string]{
		Hash:       attr.HashString,
		KeyLen:     func(s string) int { return len(s) },
		K:          k,
		TrackTopK:  trackTopK,
		TrackOverK: true,
		Tracker:    tr,
	})
	return ix, tr
}

func rec(id uint64, ts int64) *store.Record {
	m := &types.Microblog{ID: types.ID(id), Timestamp: types.Timestamp(ts)}
	return store.NewRecord(m, float64(ts))
}

func TestInsertOrdering(t *testing.T) {
	ix, _ := newTestIndex(3, false)
	// Insert out of order; TopK must return by descending score.
	for _, ts := range []int64{5, 1, 9, 3, 7} {
		ix.Insert("k", rec(uint64(ts), ts))
	}
	e := ix.Entry("k")
	if e == nil {
		t.Fatal("entry missing")
	}
	top := e.TopK(3)
	want := []int64{9, 7, 5}
	for i, r := range top {
		if int64(r.MB.Timestamp) != want[i] {
			t.Errorf("top[%d] = %d, want %d", i, r.MB.Timestamp, want[i])
		}
	}
	if got := e.BeyondTopK(3); got != 2 {
		t.Errorf("BeyondTopK = %d, want 2", got)
	}
}

func TestOverKListMaintenance(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	ix.Insert("a", rec(1, 1))
	ix.Insert("a", rec(2, 2))
	if n := ix.OverKLen(); n != 0 {
		t.Fatalf("OverKLen = %d before crossing k, want 0", n)
	}
	ix.Insert("a", rec(3, 3))
	if n := ix.OverKLen(); n != 1 {
		t.Fatalf("OverKLen = %d after crossing k, want 1", n)
	}
	// Crossing again must not duplicate.
	ix.Insert("a", rec(4, 4))
	if n := ix.OverKLen(); n != 1 {
		t.Fatalf("OverKLen = %d after more inserts, want 1", n)
	}
	l := ix.TakeOverK()
	if len(l) != 1 || l[0].Key() != "a" {
		t.Fatalf("TakeOverK = %v", l)
	}
	if n := ix.OverKLen(); n != 0 {
		t.Fatalf("OverKLen = %d after take, want 0", n)
	}
}

func TestTrimBeyondTopK(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	recs := make([]*store.Record, 5)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(i+1))
		ix.Insert("k", recs[i])
	}
	e := ix.Entry("k")
	removed, _, _ := e.Remove(2, BeyondTopK, nil)
	if len(removed) != 3 {
		t.Fatalf("removed %d, want 3", len(removed))
	}
	// Removed must be the three oldest.
	for _, r := range removed {
		if r.MB.Timestamp > 3 {
			t.Errorf("trimmed a top-k record ts=%d", r.MB.Timestamp)
		}
	}
	if e.Len() != 2 {
		t.Errorf("entry len = %d, want 2", e.Len())
	}
}

func TestTrimKeepPredicate(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	var keeper *store.Record
	for i := 1; i <= 5; i++ {
		r := rec(uint64(i), int64(i))
		if i == 2 {
			keeper = r
		}
		ix.Insert("k", r)
	}
	e := ix.Entry("k")
	removed, _, _ := e.Remove(2, BeyondTopK, func(r *store.Record) bool { return r == keeper })
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2 (one kept)", len(removed))
	}
	if e.Len() != 3 {
		t.Fatalf("entry len = %d, want 3", e.Len())
	}
	if !e.Contains(keeper) {
		t.Error("kept record missing from entry")
	}
}

func TestTopKCounters(t *testing.T) {
	ix, _ := newTestIndex(2, true)
	recs := make([]*store.Record, 4)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(i+1))
		ix.Insert("k", recs[i])
	}
	// k=2: top-k is {3,4}; records 1,2 must have fallen out.
	wantCounts := []int32{0, 0, 1, 1}
	for i, r := range recs {
		if got := r.TopKCount(); got != wantCounts[i] {
			t.Errorf("rec %d TopKCount = %d, want %d", i+1, got, wantCounts[i])
		}
	}
	// A record in two entries' top-k counts twice.
	ix.Insert("other", recs[3])
	if got := recs[3].TopKCount(); got != 2 {
		t.Errorf("TopKCount after second entry = %d, want 2", got)
	}
}

func TestDetachAllRejectsInserts(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	r1 := rec(1, 1)
	ix.Insert("k", r1)
	e := ix.Entry("k")
	drained, _, _ := e.Remove(2, AllPostings, nil)
	if len(drained) != 1 {
		t.Fatalf("drained %d, want 1", len(drained))
	}
	if !e.IsDead() || ix.Entry("k") != nil || ix.Entries() != 0 {
		t.Fatal("emptied entry still alive or mapped")
	}
	// New insert must create a fresh entry, not resurrect the dead one.
	r2 := rec(2, 2)
	ix.Insert("k", r2)
	e2 := ix.Entry("k")
	if e2 == e {
		t.Fatal("insert reused dead entry")
	}
	if e2.Len() != 1 {
		t.Fatalf("new entry len = %d, want 1", e2.Len())
	}
}

func TestDeadEntryReplacedEvenWithoutDetach(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	ix.Insert("k", rec(1, 1))
	e := ix.Entry("k")
	// Dead but still mapped: the remover has not unmapped it yet.
	e.mu.Lock()
	e.die()
	e.mu.Unlock()
	ix.Insert("k", rec(2, 2))
	if ix.Entry("k") == e {
		t.Fatal("dead entry not replaced on insert")
	}
}

func TestDetachExcept(t *testing.T) {
	ix, _ := newTestIndex(10, false)
	keep := rec(2, 2)
	ix.Insert("k", rec(1, 1))
	ix.Insert("k", keep)
	ix.Insert("k", rec(3, 3))
	e := ix.Entry("k")
	removed, _, _ := e.Remove(10, AllPostings, func(r *store.Record) bool { return r == keep })
	if len(removed) != 2 || e.Len() != 1 {
		t.Fatalf("removed=%d retained=%d, want 2,1", len(removed), e.Len())
	}
	if e.IsDead() || ix.Entry("k") != e {
		t.Error("entry with retained postings must stay alive and mapped")
	}
	removed, _, _ = e.Remove(10, AllPostings, func(*store.Record) bool { return false })
	if len(removed) != 1 || e.Len() != 0 {
		t.Fatalf("second detach: removed=%d retained=%d, want 1,0", len(removed), e.Len())
	}
	if !e.IsDead() || ix.Entry("k") != nil {
		t.Error("fully drained entry must die and leave the map")
	}
}

func TestRemovePostingDieIfEmpty(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	r1, r2 := rec(1, 1), rec(2, 2)
	ix.Insert("k", r1)
	ix.Insert("k", r2)
	e := ix.Entry("k")
	if freed := e.RemoveRecord(r1, 2); freed != memsize.PostingSize || e.IsDead() {
		t.Fatalf("first removal: freed=%d dead=%v", freed, e.IsDead())
	}
	if freed := e.RemoveRecord(r1, 2); freed != 0 || e.IsDead() {
		t.Fatalf("duplicate removal: freed=%d dead=%v", freed, e.IsDead())
	}
	if freed := e.RemoveRecord(r2, 2); freed != memsize.PostingSize+memsize.EntryBytes(len("k")) || !e.IsDead() {
		t.Fatalf("last removal: freed=%d dead=%v", freed, e.IsDead())
	}
	if ix.Entry("k") != nil || ix.Entries() != 0 || ix.Postings() != 0 {
		t.Fatal("dead entry left in the map or counted")
	}
}

func TestCensus(t *testing.T) {
	ix, _ := newTestIndex(2, false)
	// "big" has 4 postings (2 beyond), "small" has 1.
	for i := 1; i <= 4; i++ {
		ix.Insert("big", rec(uint64(i), int64(i)))
	}
	ix.Insert("small", rec(10, 10))
	c := ix.TakeCensus()
	if c.Entries != 2 || c.KFilled != 1 || c.Postings != 5 || c.BeyondTopK != 2 {
		t.Fatalf("census = %+v", c)
	}
}

func TestMemoryGaugeBalance(t *testing.T) {
	ix, tr := newTestIndex(2, false)
	for i := 1; i <= 10; i++ {
		ix.Insert("k", rec(uint64(i), int64(i)))
	}
	before := tr.Index()
	e := ix.Entry("k")
	removed, freed, _ := e.Remove(2, BeyondTopK, nil)
	wantDelta := int64(len(removed)) * memsize.PostingSize
	if got := before - tr.Index(); got != wantDelta || freed != wantDelta {
		t.Fatalf("index gauge delta after trim = %d, reported %d, want %d", got, freed, wantDelta)
	}
	// Emptying the entry releases its header bytes too.
	_, freed, _ = e.Remove(2, AllPostings, nil)
	wantFreed := 2*memsize.PostingSize + memsize.EntryBytes(len("k"))
	wantDelta += wantFreed
	if got := before - tr.Index(); got != wantDelta || freed != wantFreed {
		t.Fatalf("index gauge delta after detach = %d, reported %d; want %d, %d", got, freed, wantDelta, wantFreed)
	}
	if ix.Entries() != 0 {
		t.Fatalf("entries = %d, want 0", ix.Entries())
	}
}

func TestSetKAffectsCensusAndTopK(t *testing.T) {
	ix, _ := newTestIndex(5, false)
	for i := 1; i <= 5; i++ {
		ix.Insert("k", rec(uint64(i), int64(i)))
	}
	if c := ix.TakeCensus(); c.KFilled != 1 {
		t.Fatalf("KFilled = %d, want 1", c.KFilled)
	}
	ix.SetK(10)
	if c := ix.TakeCensus(); c.KFilled != 0 {
		t.Fatalf("after SetK(10): KFilled = %d, want 0", c.KFilled)
	}
}

// TestConcurrentInsertAndTrim exercises the digestion/flushing
// separation: inserts proceed while another goroutine trims.
func TestConcurrentInsertAndTrim(t *testing.T) {
	ix, _ := newTestIndex(10, false)
	var wg sync.WaitGroup
	const n = 2000
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			ix.Insert(fmt.Sprintf("k%d", i%7), rec(uint64(i), int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, e := range ix.TakeOverK() {
				e.Remove(10, BeyondTopK, nil)
			}
		}
	}()
	wg.Wait()
	// Every entry must hold at most its inserted postings and the
	// posting gauge must be consistent with a full scan.
	var scan int64
	ix.Range(func(e *Entry[string]) bool {
		scan += int64(e.Len())
		return true
	})
	if scan != ix.Postings() {
		t.Fatalf("scan postings = %d, counter = %d", scan, ix.Postings())
	}
}

// Property: for any insertion order, TopK returns the k highest
// timestamps in descending order.
func TestTopKProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, _ := newTestIndex(5, false)
		count := int(n%50) + 1
		ts := rng.Perm(count)
		for i, v := range ts {
			ix.Insert("k", rec(uint64(i+1), int64(v+1)))
		}
		e := ix.Entry("k")
		k := 5
		if count < k {
			k = count
		}
		top := e.TopK(5)
		if len(top) != k {
			return false
		}
		for i := 0; i < len(top); i++ {
			if int64(top[i].MB.Timestamp) != int64(count-i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reference counts equal the number of entries referencing
// each record after arbitrary inserts across multiple keys, and still
// after arbitrary removals.
func TestPCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, _ := newTestIndex(3, false)
		recs := make(map[uint64]*store.Record)
		refs := make(map[uint64]int32)
		for i := 0; i < 200; i++ {
			id := uint64(i + 1)
			r := rec(id, int64(i+1))
			recs[id] = r
			nkeys := rng.Intn(3) + 1
			seen := map[string]bool{}
			for j := 0; j < nkeys; j++ {
				key := fmt.Sprintf("k%d", rng.Intn(10))
				if seen[key] {
					continue
				}
				seen[key] = true
				ix.Insert(key, r)
				refs[id]++
			}
		}
		for id, r := range recs {
			if r.PCount() != refs[id] {
				return false
			}
		}
		// Remove through both entry points, unreferencing what left as
		// the release path does: the counts must still equal the
		// postings left.
		for i := 0; i < 100; i++ {
			e := ix.Entry(fmt.Sprintf("k%d", rng.Intn(10)))
			if e == nil {
				continue
			}
			var removed []*store.Record
			switch rng.Intn(4) {
			case 0:
				removed, _, _ = e.Remove(3, BeyondTopK, func(r *store.Record) bool { return r.MB.ID%3 == 0 })
			case 1:
				removed, _, _ = e.Remove(3, AllPostings, nil)
			case 2:
				removed, _, _ = e.Remove(3, AllPostings, func(r *store.Record) bool { return r.MB.ID%2 == 0 })
			default:
				if r := recs[uint64(rng.Intn(200)+1)]; e.RemoveRecord(r, 3) > 0 {
					removed = []*store.Record{r}
				}
			}
			for _, r := range removed {
				r.Unref()
			}
		}
		held := map[*store.Record]int32{}
		ix.Range(func(e *Entry[string]) bool {
			all, _, _ := e.Probe(-1)
			for _, r := range all {
				held[r]++
			}
			return true
		})
		for _, r := range recs {
			if r.PCount() != held[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKCounterConsistencyProperty drives an index with top-k
// tracking through random inserts, trims, detaches, removals and k
// changes, then verifies every record's top-k membership counter equals
// the ground truth recomputed from the surviving entries, each at the k
// it last worked with. This is the invariant the kFlushing-MK retention
// rule depends on.
func TestTopKCounterConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, _ := newTestIndex(3, true)
		keys := []string{"a", "b", "c", "d"}
		var live []*store.Record
		next := uint64(0)
		for step := 0; step < 300; step++ {
			k := ix.K()
			switch op := rng.Intn(11); {
			case op == 10: // SetK between flushes
				ix.SetK(2 + rng.Intn(3))
			case op < 6: // insert under 1-2 random keys
				next++
				r := rec(next, int64(next))
				seen := map[string]bool{}
				for j := 0; j <= rng.Intn(2); j++ {
					key := keys[rng.Intn(len(keys))]
					if !seen[key] {
						seen[key] = true
						ix.Insert(key, r)
					}
				}
				live = append(live, r)
			case op < 7: // trim one over-k entry, under the MK retention rule or not
				if e := ix.Entry(keys[rng.Intn(len(keys))]); e != nil {
					var keep func(*store.Record) bool
					if rng.Intn(2) == 0 {
						keep = func(r *store.Record) bool { return r.TopKCount() > 0 }
					}
					e.Remove(k, BeyondTopK, keep)
				}
			case op < 8: // remove a whole entry
				if e := ix.Entry(keys[rng.Intn(len(keys))]); e != nil {
					e.Remove(k, AllPostings, nil)
				}
			case op < 9: // remove an entry's postings but those a random keep rule retains
				if e := ix.Entry(keys[rng.Intn(len(keys))]); e != nil {
					bit := rng.Intn(2) == 0
					e.Remove(k, AllPostings, func(r *store.Record) bool {
						return (r.MB.ID%2 == 0) == bit
					})
				}
			default: // remove one random posting
				if len(live) > 0 {
					r := live[rng.Intn(len(live))]
					if e := ix.Entry(keys[rng.Intn(len(keys))]); e != nil {
						e.RemoveRecord(r, k)
					}
				}
			}
		}
		// Ground truth: recount top-k membership from live entries.
		want := map[types.ID]int32{}
		ix.Range(func(e *Entry[string]) bool {
			for _, r := range e.TopK(e.countedK) {
				want[r.MB.ID]++
			}
			return true
		})
		for _, r := range live {
			if r.TopKCount() != want[r.MB.ID] {
				t.Logf("seed %d: record %d counter=%d want=%d", seed, r.MB.ID, r.TopKCount(), want[r.MB.ID])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
