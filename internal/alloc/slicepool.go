package alloc

import (
	"sync"
	"sync/atomic"
)

// classCaps are the geometric capacity classes of pooled backing
// arrays. Posting lists grow through them one class at a time, so a
// steady-state entry churns between at most two classes instead of
// walking the runtime's append growth curve.
var classCaps = [...]int{4, 16, 64, 256, 1024}

// maxClassIdleElems bounds the idle elements retained per class, so a
// burst of large entries cannot pin an unbounded free list.
const maxClassIdleElems = 64 << 10

// classFor returns the index of the smallest class with capacity >= n,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	for i, c := range classCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// SliceStats counts a pool's traffic. Reads are monotonic counters
// except Idle*, which are gauges.
type SliceStats struct {
	// Gets counts arrays handed out, Reuses the subset served from a
	// free list (the rest were fresh heap allocations).
	Gets, Reuses int64
	// Puts counts arrays returned, Discards the subset dropped because
	// their capacity matched no class or the class was full.
	Puts, Discards int64
	// IdleArrays and IdleElems gauge the free lists' current size.
	IdleArrays, IdleElems int64
}

// SlicePool recycles slice backing arrays in geometric capacity
// classes. A nil pool is valid and allocates from the heap, so callers
// hold one pointer and the allocation policy selects its value. All
// methods are safe for concurrent use.
type SlicePool[T any] struct {
	mu      sync.Mutex
	classes [len(classCaps)][][]T

	gets, reuses, puts, discards atomic.Int64
	idleElems                    atomic.Int64
	idleArrays                   atomic.Int64
}

// NewSlicePool returns a pool for the given policy: nil under
// PolicyHeap (every method then falls through to the heap), an empty
// pool under PolicyPooled.
func NewSlicePool[T any](p Policy) *SlicePool[T] {
	if p == PolicyHeap {
		return nil
	}
	return &SlicePool[T]{}
}

// Get returns a zero-length slice with capacity at least capHint,
// drawn from the matching class's free list when possible. Hints
// beyond the largest class allocate exactly from the heap.
func (p *SlicePool[T]) Get(capHint int) []T {
	if capHint < 0 {
		capHint = 0
	}
	if p == nil {
		return make([]T, 0, capHint)
	}
	p.gets.Add(1)
	ci := classFor(capHint)
	if ci < 0 {
		return make([]T, 0, capHint)
	}
	p.mu.Lock()
	for c := ci; c < len(classCaps); c++ {
		if n := len(p.classes[c]); n > 0 {
			s := p.classes[c][n-1]
			p.classes[c][n-1] = nil
			p.classes[c] = p.classes[c][:n-1]
			p.mu.Unlock()
			p.reuses.Add(1)
			p.idleArrays.Add(-1)
			p.idleElems.Add(int64(-cap(s)))
			return s
		}
		if c > ci {
			break // only the exact class and its successor are worth scanning
		}
	}
	p.mu.Unlock()
	return make([]T, 0, classCaps[ci])
}

// Put recycles a backing array. The caller passes the slice with its
// length covering every slot it wrote; Put zeroes those slots (so
// recycled arrays never pin dead pointers) and files the array under
// its capacity class. Arrays whose capacity matches no class, or whose
// class is at its idle bound, are discarded to the collector.
func (p *SlicePool[T]) Put(s []T) {
	if p == nil || cap(s) == 0 {
		return
	}
	var zero T
	for i := range s {
		s[i] = zero
	}
	p.puts.Add(1)
	ci := -1
	for i, c := range classCaps {
		if cap(s) == c {
			ci = i
			break
		}
	}
	if ci < 0 {
		p.discards.Add(1)
		return
	}
	s = s[:0]
	p.mu.Lock()
	if len(p.classes[ci])*classCaps[ci] >= maxClassIdleElems {
		p.mu.Unlock()
		p.discards.Add(1)
		return
	}
	p.classes[ci] = append(p.classes[ci], s)
	p.mu.Unlock()
	p.idleArrays.Add(1)
	p.idleElems.Add(int64(cap(s)))
}

// Grow returns a slice holding s's elements with room for at least one
// more: the next capacity class (or a doubled heap allocation beyond
// the largest class), with s's old backing array recycled. Callers must
// treat s as released.
func (p *SlicePool[T]) Grow(s []T) []T {
	want := len(s) + 1
	if p == nil {
		// Mirror append's growth without the pool: double, min 4.
		c := cap(s) * 2
		if c < 4 {
			c = 4
		}
		ns := make([]T, len(s), c)
		copy(ns, s)
		return ns
	}
	var ns []T
	if ci := classFor(want); ci >= 0 {
		ns = p.Get(classCaps[ci])
	} else {
		ns = make([]T, 0, cap(s)*2)
	}
	ns = ns[:len(s)]
	copy(ns, s)
	p.Put(s)
	return ns
}

// ShrinkThreshold reports whether an array of capacity c holding n live
// elements is worth re-packing into a smaller class: the live count
// must fit a class at least two steps down, so entries hovering around
// a class boundary never thrash.
func ShrinkThreshold(n, c int) bool {
	ci := classFor(n)
	if ci < 0 {
		return false
	}
	return classCaps[ci]*4 <= c
}

// Stats snapshots the pool's counters.
func (p *SlicePool[T]) Stats() SliceStats {
	if p == nil {
		return SliceStats{}
	}
	return SliceStats{
		Gets: p.gets.Load(), Reuses: p.reuses.Load(),
		Puts: p.puts.Load(), Discards: p.discards.Load(),
		IdleArrays: p.idleArrays.Load(), IdleElems: p.idleElems.Load(),
	}
}
