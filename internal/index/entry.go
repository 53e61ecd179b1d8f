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

	mu       sync.Mutex
	postings []*store.Record // ascending (Score, ID)
	dead     bool            // detached from the index by a flush
	// pool recycles posting backing arrays; nil means plain heap
	// allocation (AllocPolicy=heap).
	pool *alloc.SlicePool[*store.Record]
	// ceiling is the best score of any posting of the key that left
	// memory — this entry's or, copied at creation, an earlier dead
	// entry's. Every removal raises it under mu, in the same critical
	// section that unlinks the postings, so a reader holding mu never
	// sees a posting gone without its score counted here.
	ceiling ceiling
	// departed receives the ceiling when the entry dies, before anyone
	// can see it dead; nil only for entries built outside an index.
	departed *departures[K]

	// lastArrival is the timestamp of the most recent insertion,
	// the Phase 2 eviction order.
	lastArrival atomic.Int64
	// lastQueried is the timestamp of the most recent query touch,
	// the Phase 3 eviction order. Written racily by concurrent query
	// threads; the paper notes all writers store the same "now" so no
	// synchronization is needed.
	lastQueried atomic.Int64
	// inOverK records membership in the index's over-k list L.
	inOverK bool
	// trackTopK mirrors the index configuration: when set, every
	// mutation maintains the per-record top-k membership counters the
	// kFlushing-MK extension consults.
	trackTopK bool
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
func (e *Entry[K]) Probe(k int) (recs []*store.Record, n int, ceiling float64) {
	e.mu.Lock()
	n = len(e.postings)
	if k < 0 || k > n {
		k = n
	}
	recs = make([]*store.Record, k)
	for i := range recs {
		recs[i] = e.postings[n-1-i]
	}
	ceiling = e.ceiling.score()
	e.mu.Unlock()
	return recs, n, ceiling
}

// raise counts a removed posting's score in the ceiling. Callers hold
// e.mu.
func (e *Entry[K]) raise(score float64) {
	e.ceiling = max(e.ceiling, ceilingOf(score))
}

// die marks the entry dead and publishes its ceiling to the index's
// departure record first, so whoever finds the entry dead — or gone
// from the map, which only happens once it is dead — and creates the
// key's next entry starts from it. Callers hold e.mu.
func (e *Entry[K]) die() {
	if e.departed != nil {
		e.departed.publish(e.key, e.ceiling)
	}
	e.dead = true
}

// IsDead reports whether the entry has been detached by a flush. Dead
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
// counters when trackTopK is set. It reports whether the entry accepted
// the posting (false when the entry was concurrently detached) and
// whether the insertion pushed the posting count past k.
//
//kfvet:noalloc
func (e *Entry[K]) insert(rec *store.Record, k int, trackTopK bool) (ok, crossedK bool) {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return false, false
	}
	n := len(e.postings)
	if e.pool != nil && n == cap(e.postings) {
		e.postings = e.pool.Grow(e.postings)
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
	if trackTopK && k > 0 && pos >= n-k {
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

// TrimBeyondTopK removes postings ranked outside the top-k for which
// keep returns false (keep == nil removes all of them). It returns the
// removed records; the caller handles reference counting and memory
// accounting. Used by Phase 1; the keep predicate implements the
// kFlushing-MK retention rule.
//
//kfvet:noalloc
func (e *Entry[K]) TrimBeyondTopK(k int, keep func(*store.Record) bool) []*store.Record {
	e.mu.Lock()
	n := len(e.postings)
	if n <= k {
		e.mu.Unlock()
		return nil
	}
	beyond := n - k
	removed := e.pool.Get(beyond)
	kept := e.postings[:0]
	for i, rec := range e.postings {
		if i < beyond && (keep == nil || !keep(rec)) {
			removed = append(removed, rec)
		} else {
			kept = append(kept, rec)
		}
	}
	if len(removed) > 0 {
		// Removed in ascending order: the last is the best.
		e.raise(removed[len(removed)-1].Score)
	}
	// Zero the vacated slots so removed records are collectable.
	for i := len(kept); i < n; i++ {
		e.postings[i] = nil
	}
	e.postings = kept
	// Re-pack into a smaller capacity class when the trim freed enough
	// of the array; the old backing returns to the pool.
	if e.pool != nil && alloc.ShrinkThreshold(len(kept), cap(kept)) {
		ns := e.pool.Get(len(kept))
		ns = append(ns, kept...)
		e.pool.Put(kept)
		e.postings = ns
	}
	e.mu.Unlock()
	return removed
}

// DetachAll marks the entry dead and returns all postings. Once dead the
// entry rejects further insertions, so a concurrent ingest re-creates a
// fresh entry — this is the paper's "entry moved from the index to a
// temporary buffer in a single atomic step". k is the top-k threshold
// in force, needed to release the removed postings' top-k membership
// counters.
func (e *Entry[K]) DetachAll(k int) []*store.Record {
	e.mu.Lock()
	out := e.postings
	if len(out) > 0 {
		e.raise(out[len(out)-1].Score)
	}
	e.die()
	if e.trackTopK {
		for i := max(0, len(out)-k); i < len(out); i++ {
			out[i].TopKRef(-1)
		}
	}
	e.postings = nil
	e.mu.Unlock()
	return out
}

// DetachExcept behaves like DetachAll but retains postings for which
// keep returns true, leaving the entry alive if any survive. It returns
// the removed records and the number retained. Used by the extended
// Phase 2 of kFlushing-MK, which keeps postings that are still top-k
// material in other, frequent entries.
func (e *Entry[K]) DetachExcept(k int, keep func(*store.Record) bool) (removed []*store.Record, retained int) {
	e.mu.Lock()
	n := len(e.postings)
	oldBoundary := max(0, n-k) // indices >= oldBoundary were top-k
	removed = e.pool.Get(n)
	kept := e.pool.Get(n)
	var keptOldIdx []int
	for i, rec := range e.postings {
		if keep != nil && keep(rec) {
			kept = append(kept, rec)
			keptOldIdx = append(keptOldIdx, i)
		} else {
			removed = append(removed, rec)
			if e.trackTopK && i >= oldBoundary {
				rec.TopKRef(-1)
			}
		}
	}
	if e.trackTopK {
		// Removals promote kept postings into the top-k; kept postings
		// that were already top-k stay there.
		newBoundary := max(0, len(kept)-k)
		for newIdx, rec := range kept {
			if newIdx >= newBoundary && keptOldIdx[newIdx] < oldBoundary {
				rec.TopKRef(1)
			}
		}
	}
	if len(removed) > 0 {
		e.raise(removed[len(removed)-1].Score)
	}
	for i := range e.postings {
		e.postings[i] = nil
	}
	e.pool.Put(e.postings) // old backing, already zeroed above
	e.postings = kept
	retained = len(kept)
	if retained == 0 {
		e.die()
		e.pool.Put(e.postings)
		e.postings = nil
	}
	e.mu.Unlock()
	return removed, retained
}

// RemovePosting unlinks one record's posting from the entry, reporting
// whether it was present. The FIFO and LRU baselines use it to evict
// individual records. The common FIFO case (globally oldest record,
// hence lowest temporal score) is O(1) at the front.
func (e *Entry[K]) RemovePosting(rec *store.Record, k int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.postings)
	if n == 0 {
		return false
	}
	idx := -1
	if e.postings[0] == rec {
		idx = 0
	} else {
		// Binary search the score region, then scan for pointer
		// identity (several postings may share a score).
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if less(e.postings[mid], rec) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := lo; i < n && !less(rec, e.postings[i]); i++ {
			if e.postings[i] == rec {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return false
	}
	e.removeAt(idx, k)
	return true
}

// removeAt unlinks the posting at idx, maintaining top-k membership
// counters. Callers must hold e.mu.
func (e *Entry[K]) removeAt(idx, k int) {
	n := len(e.postings)
	e.raise(e.postings[idx].Score)
	if e.trackTopK {
		boundary := max(0, n-k)
		if idx >= boundary {
			e.postings[idx].TopKRef(-1)
			if boundary > 0 {
				// The posting just below the boundary is promoted.
				e.postings[boundary-1].TopKRef(1)
			}
		}
	}
	copy(e.postings[idx:], e.postings[idx+1:])
	e.postings[n-1] = nil
	e.postings = e.postings[:n-1]
}

// RemovePostingDieIfEmpty unlinks one record's posting and, if the entry
// becomes empty, marks it dead so the caller can detach it from the
// index. The FIFO and LRU baselines evict individual records and use
// this to garbage-collect emptied entries without racing concurrent
// insertions (a dead entry rejects inserts, forcing re-creation).
func (e *Entry[K]) RemovePostingDieIfEmpty(rec *store.Record, k int) (removed, died bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.postings)
	idx := -1
	for i := 0; i < n; i++ {
		if e.postings[i] == rec {
			idx = i
			break
		}
		// Posting lists are score-ordered; stop once past rec's score.
		if less(rec, e.postings[i]) {
			break
		}
	}
	if idx < 0 {
		return false, false
	}
	e.removeAt(idx, k)
	if len(e.postings) == 0 && !e.dead {
		e.die()
		return true, true
	}
	return true, false
}

// Contains reports whether the entry currently holds a posting for rec.
func (e *Entry[K]) Contains(rec *store.Record) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.postings {
		if p == rec {
			return true
		}
		if less(rec, p) {
			return false
		}
	}
	return false
}

// MemBytes returns the modeled memory cost of the entry under the given
// key length: the fixed entry header plus its postings.
func (e *Entry[K]) MemBytes(keyLen int) int64 {
	e.mu.Lock()
	n := len(e.postings)
	e.mu.Unlock()
	return memsize.EntryBytes(keyLen) + int64(n)*memsize.PostingSize
}

// FreeableBytes estimates how much budget-relevant memory evicting the
// whole entry would free: the entry and its postings, plus each
// referenced record's bytes amortized over its current reference count.
// Phase 2 and Phase 3 use this estimate when packing the victim heap.
func (e *Entry[K]) FreeableBytes(keyLen int) int64 {
	e.mu.Lock()
	total := memsize.EntryBytes(keyLen) + int64(len(e.postings))*memsize.PostingSize
	for _, rec := range e.postings {
		pc := int64(rec.PCount())
		if pc < 1 {
			pc = 1
		}
		total += rec.Bytes / pc
	}
	e.mu.Unlock()
	return total
}
