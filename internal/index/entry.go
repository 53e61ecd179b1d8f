package index

import (
	"sync"
	"sync/atomic"

	"kflushing/internal/alloc"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// Entry is one inverted-index cell: the posting list of a single key
// (keyword, spatial tile, or user ID), ordered by ranking score so the
// top-k postings are always directly accessible (Section IV-B).
//
// Postings are kept in ascending score order: the tail of the slice is
// the top of the ranking. The paper's insertion/trim separation — "IDs
// are added to the list head while trimmed IDs are removed from the list
// tail" — maps here to appends at the tail (newest under temporal
// ranking) and trims at the front, so digestion and flushing touch
// opposite ends of the list.
type Entry[K comparable] struct {
	key K
	// ix is the index the entry belongs to: its posting pool, top-k
	// tracking, departure record and counters.
	ix *Index[K]
	// hash is the key's shard-selection hash and headerBytes the
	// entry's modeled size (memsize.EntryBytes), both fixed at creation:
	// a removal reaches the entry's shard and departure bucket without
	// calling the index's key functions, which the allocation checker
	// cannot see through.
	hash        uint64
	headerBytes int64

	mu       sync.Mutex
	postings []*store.Record // ascending (Score, ID)
	dead     bool            // emptied by a removal; rejects inserts
	// ceiling ranks the best posting of the key that left memory —
	// this entry's or, copied at creation, an earlier dead entry's.
	// Every removal raises it under mu, in the same critical section
	// that unlinks the postings, so a reader holding mu never sees a
	// posting gone without its rank counted here.
	ceiling Bound

	// lastArrival is the timestamp of the most recent insertion,
	// the Phase 2 eviction order.
	lastArrival atomic.Int64
	// lastQueried is the timestamp of the most recent query touch,
	// the Phase 3 eviction order. Written racily by concurrent query
	// threads; the paper notes all writers store the same "now" so no
	// synchronization is needed.
	lastQueried atomic.Int64
	// countedK is the k the top-k membership counters of the entry's
	// postings were counted for, when the index tracks them.
	countedK int
	// inOverK records membership in the index's over-k list L, and
	// nextOverK links L through its entries.
	inOverK   bool
	nextOverK *Entry[K]
}

// Key returns the entry's key.
func (e *Entry[K]) Key() K { return e.key }

// LastArrival returns the timestamp of the most recent insertion.
func (e *Entry[K]) LastArrival() types.Timestamp {
	return types.Timestamp(e.lastArrival.Load())
}

// LastQueried returns the timestamp of the most recent query touch.
func (e *Entry[K]) LastQueried() types.Timestamp {
	return types.Timestamp(e.lastQueried.Load())
}

// Touch records a query access at time now (Phase 3 bookkeeping).
func (e *Entry[K]) Touch(now types.Timestamp) { e.lastQueried.Store(int64(now)) }

// Len returns the number of postings.
func (e *Entry[K]) Len() int {
	e.mu.Lock()
	n := len(e.postings)
	e.mu.Unlock()
	return n
}

// Probe copies the entry's k best postings (every posting when k < 0),
// best first, and returns them with the entry's posting count and
// ceiling, all read under one lock: a search decides whether the copy is
// the key's exact answer from exactly the state it copied.
func (e *Entry[K]) Probe(k int) (recs []*store.Record, n int, ceiling Bound) {
	e.mu.Lock()
	n = len(e.postings)
	if k < 0 || k > n {
		k = n
	}
	recs = make([]*store.Record, k)
	for i := range recs {
		recs[i] = e.postings[n-1-i]
	}
	ceiling = e.ceiling
	e.mu.Unlock()
	return recs, n, ceiling
}

// die marks the entry dead and publishes its ceiling to the index's
// departure record first, so whoever finds the entry dead — or gone
// from the map, which only happens once it is dead — and creates the
// key's next entry starts from it. Callers hold e.mu.
func (e *Entry[K]) die() {
	e.ix.departed.publish(e.hash, e.ceiling)
	e.dead = true
}

// IsDead reports whether the entry has been emptied by a removal. Dead
// entries reject insertions and are replaced in the index map on the
// next access to their key.
func (e *Entry[K]) IsDead() bool {
	e.mu.Lock()
	d := e.dead
	e.mu.Unlock()
	return d
}

// less orders postings by (score, ID) ascending.
func less(a, b *store.Record) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.MB.ID < b.MB.ID
}

// insert adds rec keeping score order, maintaining top-k membership
// counters when the index tracks them. It reports whether the entry
// accepted the posting (false when the entry concurrently died) and
// whether the insertion pushed the posting count past k.
//
//kfvet:noalloc
func (e *Entry[K]) insert(rec *store.Record, k int) (ok, crossedK bool) {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return false, false
	}
	e.countFor(k)
	n := len(e.postings)
	if pool := e.ix.cfg.Pool; pool != nil && n == cap(e.postings) {
		e.postings = pool.Grow(e.postings)
	}
	var pos int
	// Fast path: scores arrive mostly in ranking order under temporal
	// ranking, so the new posting usually belongs at the tail.
	if n == 0 || !less(rec, e.postings[n-1]) {
		e.postings = append(e.postings, rec)
		pos = n
	} else {
		// Binary search for the insertion point.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if less(rec, e.postings[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e.postings = append(e.postings, nil)
		copy(e.postings[lo+1:], e.postings[lo:])
		e.postings[lo] = rec
		pos = lo
	}
	n++
	// The new posting is in the top-k iff its insertion index >= n-k.
	if e.ix.cfg.TrackTopK && k > 0 && pos >= n-k {
		rec.TopKRef(1)
		if n > k {
			// Exactly one previous top-k posting fell out: the one
			// now ranked (k+1)-th from the tail.
			e.postings[n-k-1].TopKRef(-1)
		}
	}
	e.lastArrival.Store(int64(rec.MB.Timestamp))
	crossed := n == k+1
	e.mu.Unlock()
	return true, crossed
}

// TopK returns a copy of the top-k postings in ranking order (highest
// score first).
func (e *Entry[K]) TopK(k int) []*store.Record {
	e.mu.Lock()
	n := len(e.postings)
	if k > n {
		k = n
	}
	out := make([]*store.Record, k)
	for i := 0; i < k; i++ {
		out[i] = e.postings[n-1-i]
	}
	e.mu.Unlock()
	return out
}

// BeyondTopK returns how many postings rank outside the top-k — the
// paper's "useless microblogs" for this entry.
func (e *Entry[K]) BeyondTopK(k int) int {
	e.mu.Lock()
	n := len(e.postings) - k
	e.mu.Unlock()
	if n < 0 {
		return 0
	}
	return n
}

// Scope names the postings a ranged removal considers.
type Scope int

const (
	// BeyondTopK is Phase 1's scope: the postings ranked outside the
	// top-k, the paper's "useless microblogs".
	BeyondTopK Scope = iota
	// AllPostings is the scope of Phases 2 and 3, which evict entries.
	AllPostings
)

// Remove takes out of the entry the postings in scope for which keep
// returns false (keep == nil takes every one). The keep predicate is
// the kFlushing-MK retention rule; it runs under the entry's lock. An
// entry left empty dies: it rejects further insertions, so a concurrent
// ingest re-creates the key — the paper's "entry moved from the index
// to a temporary buffer in a single atomic step" — and it leaves the
// index map. An entry left above k goes back on the over-k list L, so
// the next Phase 1 sees it again.
//
// It returns the removed records in ascending order, in an array the
// caller returns through Index.RecyclePostings once it has released
// them, the index bytes the removal freed, and whether the removal took
// postings from a complete entry, one whose key had never lost one.
//
//kfvet:noalloc
func (e *Entry[K]) Remove(k int, scope Scope, keep func(*store.Record) bool) (removed []*store.Record, freed int64, complete bool) {
	e.mu.Lock()
	e.countFor(k)
	n := len(e.postings)
	top := max(0, n-k) // postings from top on are the top-k
	end := n           // postings before end are in scope
	if scope == BeyondTopK {
		end = top
	}
	if end == 0 {
		e.mu.Unlock()
		return nil, 0, false
	}
	complete = e.ceiling.Complete()
	pool := e.ix.cfg.Pool
	removed = pool.Get(end)
	kept, keptTop := e.postings[:0], 0
	for i, rec := range e.postings {
		if i < end && (keep == nil || !keep(rec)) {
			removed = append(removed, rec)
			if i >= top && e.ix.cfg.TrackTopK {
				rec.TopKRef(-1)
			}
			continue
		}
		kept = append(kept, rec)
		if i >= top {
			keptTop++
		}
	}
	// Zero the vacated slots so removed records are collectable.
	clear(e.postings[len(kept):])
	e.postings = kept
	var died bool
	if len(removed) > 0 {
		died = e.settle(k, keptTop, removed[len(removed)-1])
	}
	// Re-pack into a smaller capacity class when the removal freed
	// enough of the array; the old backing returns to the pool.
	if pool != nil && alloc.ShrinkThreshold(len(e.postings), cap(e.postings)) {
		ns := pool.Get(len(e.postings))
		ns = append(ns, e.postings...)
		pool.Put(e.postings)
		e.postings = ns
	}
	left := len(e.postings)
	e.mu.Unlock()
	return removed, e.ix.removed(e, len(removed), left, k, died), complete && len(removed) > 0
}

// RemoveRecord takes rec's posting out of the entry, for the FIFO and
// LRU baselines, which evict record by record; an entry left empty dies
// as under Remove. It returns the index bytes freed, 0 when the entry
// holds no posting of rec.
//
//kfvet:noalloc
func (e *Entry[K]) RemoveRecord(rec *store.Record, k int) int64 {
	e.mu.Lock()
	i := e.find(rec)
	if i < 0 {
		e.mu.Unlock()
		return 0
	}
	e.countFor(k)
	n := len(e.postings)
	keptTop := min(n, k)
	if i >= n-k {
		keptTop--
		if e.ix.cfg.TrackTopK {
			rec.TopKRef(-1)
		}
	}
	copy(e.postings[i:], e.postings[i+1:])
	e.postings[n-1] = nil
	e.postings = e.postings[:n-1]
	died := e.settle(k, keptTop, rec)
	left := len(e.postings)
	e.mu.Unlock()
	return e.ix.removed(e, 1, left, k, died)
}

// countFor moves the entry's top-k membership counters to k when they
// were counted for another k, as after SetK: the postings between the
// two boundaries join or leave the top-k. Callers hold e.mu.
func (e *Entry[K]) countFor(k int) {
	if !e.ix.cfg.TrackTopK || e.countedK == k {
		return
	}
	n := len(e.postings)
	lo, hi, delta := max(0, n-k), max(0, n-e.countedK), int32(1)
	if lo > hi {
		lo, hi, delta = hi, lo, -1
	}
	for _, rec := range e.postings[lo:hi] {
		rec.TopKRef(delta)
	}
	e.countedK = k
}

// settle finishes a removal under e.mu, once postings holds the
// survivors, keptTop of which were in the top-k before it: it raises
// the ceiling to best, the best posting removed; counts the survivors
// the removal promoted into the top-k; and kills the entry if it
// emptied, returning its array to the pool.
func (e *Entry[K]) settle(k, keptTop int, best *store.Record) (died bool) {
	if e.ceiling.Below(best.Score, best.MB.ID) {
		e.ceiling = Bound{Score: best.Score, ID: best.MB.ID}
	}
	if e.ix.cfg.TrackTopK {
		m := len(e.postings)
		for _, rec := range e.postings[max(0, m-k) : m-keptTop] {
			rec.TopKRef(1)
		}
	}
	if len(e.postings) > 0 {
		return false
	}
	e.die()
	e.ix.cfg.Pool.Put(e.postings)
	e.postings = nil
	return true
}

// find returns rec's position among the postings, -1 if it has none:
// a binary search of the score region, then a scan for pointer
// identity (several postings may share a score). Callers hold e.mu.
func (e *Entry[K]) find(rec *store.Record) int {
	for i := e.search(rec.Score, rec.MB.ID); i < len(e.postings) && !less(rec, e.postings[i]); i++ {
		if e.postings[i] == rec {
			return i
		}
	}
	return -1
}

// search returns the position of the first posting that does not rank
// below (score, id). Callers hold e.mu.
func (e *Entry[K]) search(score float64, id types.ID) int {
	lo, hi := 0, len(e.postings)
	for lo < hi {
		mid := (lo + hi) / 2
		if p := e.postings[mid]; p.Score < score || p.Score == score && p.MB.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether the entry currently holds a posting for rec.
func (e *Entry[K]) Contains(rec *store.Record) bool {
	e.mu.Lock()
	i := e.find(rec)
	e.mu.Unlock()
	return i >= 0
}

// FreeableBytes estimates how much budget-relevant memory evicting the
// whole entry would free: the entry and its postings, plus each
// referenced record's bytes amortized over its current reference count.
// Phase 2 and Phase 3 use this estimate when packing the victim heap.
func (e *Entry[K]) FreeableBytes() int64 {
	e.mu.Lock()
	total := e.headerBytes + int64(len(e.postings))*memsize.PostingSize
	for _, rec := range e.postings {
		pc := int64(rec.PCount())
		if pc < 1 {
			pc = 1
		}
		total += rec.Bytes() / pc
	}
	e.mu.Unlock()
	return total
}
