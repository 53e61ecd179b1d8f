package alloc

import (
	"sync"
	"sync/atomic"
)

// epochGuard is a two-parity epoch-based reclamation guard, the
// quarantine that makes object reuse safe against concurrent readers.
//
// Readers (query threads) pin the current epoch before copying pointers
// out of shared structures and unpin when done. Objects are freed with
// the epoch current at free time; because an object is unlinked from
// every shared structure before it is freed, only readers pinned at or
// before that epoch can still hold its pointer. The global epoch can
// advance from g to g+1 only when no reader from epoch g-1 remains, so
// once it reaches f+2 every reader that could hold an object freed at
// epoch f has unpinned — the object is provably unreachable and safe to
// hand out again.
type epochGuard struct {
	global atomic.Uint64
	active [2]atomic.Int64 // pinned readers by epoch parity
}

// pin registers a reader in the current epoch and returns it.
//
//kfvet:noalloc
func (g *epochGuard) pin() uint64 {
	for {
		e := g.global.Load()
		g.active[e&1].Add(1)
		if g.global.Load() == e {
			return e
		}
		// The epoch advanced between the load and the increment; the
		// registration may sit in the wrong parity, so redo it.
		g.active[e&1].Add(-1)
	}
}

// unpin deregisters a reader pinned at epoch e.
//
//kfvet:noalloc
func (g *epochGuard) unpin(e uint64) { g.active[e&1].Add(-1) }

// tryAdvance bumps the global epoch when no reader from the previous
// epoch remains, reporting whether it (or a racing caller) advanced.
func (g *epochGuard) tryAdvance() bool {
	e := g.global.Load()
	if g.active[(e+1)&1].Load() != 0 {
		return false
	}
	return g.global.CompareAndSwap(e, e+1) || g.global.Load() != e
}

// maxFreeItems bounds the recycler's ready-for-reuse list.
const maxFreeItems = 32 << 10

// RecyclerStats counts a recycler's traffic.
type RecyclerStats struct {
	// Frees counts objects entered into quarantine, Reuses the objects
	// handed back out, Discards the objects dropped at the free-list
	// bound.
	Frees, Reuses, Discards int64
	// Limbo and Free gauge the quarantined and ready lists.
	Limbo, Free int64
}

// Recycler is an epoch-guarded object free list: Free places an object
// in quarantine stamped with the current epoch, and Get returns objects
// whose quarantine has expired (no reader pinned at their free epoch
// remains). A nil recycler is valid: Pin/Unpin are no-ops and Get
// always misses, which is exactly the heap policy. All methods are safe
// for concurrent use.
type Recycler[T any] struct {
	ep epochGuard

	mu    sync.Mutex
	limbo []limboItem[T]
	free  []T

	frees, reuses, discards atomic.Int64
}

type limboItem[T any] struct {
	v     T
	epoch uint64
}

// NewRecycler returns a recycler for the given policy: nil under
// PolicyHeap, an empty recycler under PolicyPooled.
func NewRecycler[T any](p Policy) *Recycler[T] {
	if p == PolicyHeap {
		return nil
	}
	return &Recycler[T]{}
}

// Pin registers the calling reader in the current epoch; every pointer
// the reader copies out of shared structures stays valid (never reused)
// until the matching Unpin. Readers must not hold a pin across blocking
// waits on other readers.
//
//kfvet:noalloc
func (r *Recycler[T]) Pin() uint64 {
	if r == nil {
		return 0
	}
	return r.ep.pin()
}

// Unpin releases a pin taken at epoch e.
//
//kfvet:noalloc
func (r *Recycler[T]) Unpin(e uint64) {
	if r != nil {
		r.ep.unpin(e)
	}
}

// Free places objects in quarantine. The caller asserts each object has
// been unlinked from every shared structure: after this call the only
// valid pointers to it are those readers copied out while it was still
// linked, and the quarantine outlives all of them.
func (r *Recycler[T]) Free(vs []T) {
	if r == nil || len(vs) == 0 {
		return
	}
	e := r.ep.global.Load()
	r.mu.Lock()
	for _, v := range vs {
		r.limbo = append(r.limbo, limboItem[T]{v: v, epoch: e})
	}
	r.mu.Unlock()
	r.frees.Add(int64(len(vs)))
}

// Get returns a recycled object whose quarantine expired, or reports a
// miss (the caller then allocates fresh).
func (r *Recycler[T]) Get() (T, bool) {
	var zero T
	if r == nil {
		return zero, false
	}
	r.mu.Lock()
	if len(r.free) == 0 {
		r.reclaimLocked()
	}
	if n := len(r.free); n > 0 {
		v := r.free[n-1]
		r.free[n-1] = zero
		r.free = r.free[:n-1]
		r.mu.Unlock()
		r.reuses.Add(1)
		return v, true
	}
	r.mu.Unlock()
	return zero, false
}

// reclaimLocked moves limbo items whose quarantine expired (freed at
// epoch f with the global now at f+2 or later) onto the free list,
// advancing the epoch when the head of the queue is what blocks it.
// Callers hold r.mu.
func (r *Recycler[T]) reclaimLocked() {
	for attempt := 0; attempt < 3; attempt++ {
		g := r.ep.global.Load()
		n := 0
		for n < len(r.limbo) && r.limbo[n].epoch+2 <= g {
			n++
		}
		if n > 0 {
			for i := 0; i < n; i++ {
				if len(r.free) < maxFreeItems {
					r.free = append(r.free, r.limbo[i].v)
				} else {
					r.discards.Add(1)
				}
			}
			copy(r.limbo, r.limbo[n:])
			for i := len(r.limbo) - n; i < len(r.limbo); i++ {
				r.limbo[i] = limboItem[T]{}
			}
			r.limbo = r.limbo[:len(r.limbo)-n]
			return
		}
		if len(r.limbo) == 0 || !r.ep.tryAdvance() {
			return
		}
	}
}

// Stats snapshots the recycler's counters.
func (r *Recycler[T]) Stats() RecyclerStats {
	if r == nil {
		return RecyclerStats{}
	}
	r.mu.Lock()
	limbo, free := int64(len(r.limbo)), int64(len(r.free))
	r.mu.Unlock()
	return RecyclerStats{
		Frees: r.frees.Load(), Reuses: r.reuses.Load(),
		Discards: r.discards.Load(), Limbo: limbo, Free: free,
	}
}
