package core

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"kflushing/internal/index"
)

// Selector picks the victim entries for Phases 2 and 3 among the
// candidates classify accepts. The returned victims are ordered by
// class, lowest first, and least recent first inside a class; their
// estimated freeable bytes sum to at least target when enough
// candidates exist.
type Selector[K comparable] interface {
	Select(ix *index.Index[K], target int64, classify Classifier[K]) []*index.Entry[K]
}

// Classifier maps an entry to its eviction class and timestamp (arrival
// time for Phase 2, query time for Phase 3), and reports whether the
// entry is a victim candidate at all.
type Classifier[K comparable] func(*index.Entry[K]) (class int, ts int64, ok bool)

type victim[K comparable] struct {
	e     *index.Entry[K]
	class int
	ts    int64
	// tie is the entry's key hash. Timestamps tie routinely (one record
	// creating two entries stamps both with the same arrival time), so
	// victims are ordered by (class, ts, tie): a total order that depends
	// on the keys alone, not on map iteration or goroutine scheduling.
	// (Two tied keywords with colliding 64-bit FNV hashes would still
	// fall back to scan order; integer and cell hashes are bijective.)
	tie uint64
	fb  int64
}

// before reports whether v is evicted ahead of o.
func (v victim[K]) before(o victim[K]) bool {
	if v.class != o.class {
		return v.class < o.class
	}
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.tie < o.tie
}

// victimHeap is a max-heap on eviction order: the last-to-evict buffered
// victim sits at the top, ready to be displaced by earlier candidates.
type victimHeap[K comparable] []victim[K]

func (h victimHeap[K]) Len() int            { return len(h) }
func (h victimHeap[K]) Less(i, j int) bool  { return h[j].before(h[i]) }
func (h victimHeap[K]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *victimHeap[K]) Push(x interface{}) { *h = append(*h, x.(victim[K])) }
func (h *victimHeap[K]) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// scanVictims collects every classify-accepted entry with its eviction
// class, timestamp and freeable-byte estimate. The scan — the O(n) part of
// victim selection that walks every entry and takes its lock to size it
// — is fanned out over the index shards with a bounded worker pool of
// min(GOMAXPROCS, shards) goroutines (or `workers`, when positive);
// shards are handed out through an atomic cursor so uneven shards cannot
// stall the pool. Each shard fills its own slot and the slots are
// concatenated in shard order, so which worker scanned a shard never
// shows in the result; the order inside a shard is map iteration order,
// which the selectors remove by ordering victims totally (see victim).
func scanVictims[K comparable](ix *index.Index[K], workers int, classify Classifier[K]) []victim[K] {
	shards := ix.ShardCount()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	perShard := make([][]victim[K], shards)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	scan := func() {
		defer wg.Done()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= shards {
				return
			}
			ix.RangeShard(i, func(e *index.Entry[K]) bool {
				if class, ts, ok := classify(e); ok {
					key := e.Key()
					perShard[i] = append(perShard[i], victim[K]{
						e: e, class: class, ts: ts, tie: ix.KeyHash(key), fb: e.FreeableBytes(),
					})
				}
				return true
			})
		}
	}
	// The caller is the first worker, so one worker spawns nothing.
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go scan()
	}
	scan()
	wg.Wait()
	var n int
	for _, part := range perShard {
		n += len(part)
	}
	all := make([]victim[K], 0, n)
	for _, part := range perShard {
		all = append(all, part...)
	}
	return all
}

// HeapSelector is the paper's single-pass O(n) victim selection: one
// traversal over the candidate entries maintaining an on-the-go buffer
// (a max-heap on eviction order) that always holds exactly the shortest
// prefix, in eviction order, of the candidates seen so far whose
// freeable bytes reach the target. That invariant makes the result a
// function of the candidate set alone — scan order does not matter.
//
// The candidate *scan* runs shard-parallel (see scanVictims); the heap
// pass itself is kept sequential — it is O(n) with a heap bounded by the
// target, so parallelizing it would buy little.
type HeapSelector[K comparable] struct {
	// Workers caps the scan worker pool; 0 selects
	// min(GOMAXPROCS, shards), 1 forces a sequential scan.
	Workers int
}

// Select implements Selector.
func (s HeapSelector[K]) Select(ix *index.Index[K], target int64, classify Classifier[K]) []*index.Entry[K] {
	var h victimHeap[K]
	var total int64
	for _, v := range scanVictims(ix, s.Workers, classify) {
		// A full buffer admits only candidates evicted before its last
		// victim.
		if total >= target && (len(h) == 0 || !v.before(h[0])) {
			continue
		}
		heap.Push(&h, v)
		total += v.fb
		// Shed the last victims while the buffer meets the target
		// without them.
		for len(h) > 0 && total-h[0].fb >= target {
			total -= h[0].fb
			heap.Pop(&h)
		}
	}
	out := make([]victim[K], len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	entries := make([]*index.Entry[K], len(out))
	for i, v := range out {
		entries[i] = v.e
	}
	return entries
}

// SortSelector is the straightforward O(n log n) alternative the paper
// rejects: sort every candidate in eviction order, then take the
// shortest prefix whose freeable bytes reach the target. Kept as the
// ablation baseline for the selection benchmarks. It shares the shard-parallel
// candidate scan so the ablation isolates the selection algorithm.
type SortSelector[K comparable] struct {
	// Workers caps the scan worker pool; 0 selects
	// min(GOMAXPROCS, shards), 1 forces a sequential scan.
	Workers int
}

// Select implements Selector.
func (s SortSelector[K]) Select(ix *index.Index[K], target int64, classify Classifier[K]) []*index.Entry[K] {
	all := scanVictims(ix, s.Workers, classify)
	sort.Slice(all, func(i, j int) bool { return all[i].before(all[j]) })
	var total int64
	var out []*index.Entry[K]
	for _, v := range all {
		if total >= target {
			break
		}
		out = append(out, v.e)
		total += v.fb
	}
	return out
}
