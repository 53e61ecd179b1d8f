package policy

import (
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/store"
)

// LRU is the anti-caching baseline modeled on H-Store (Section V setup):
// a single global doubly-linked list orders every in-memory record by
// last use; eviction pops from the tail. Each record points at its own
// list node (store.LRUNode), which the policy allocates at ingest and a
// recycled wrapper keeps — H-Store embeds its LRU pointers in the
// per-microblog state to reduce overhead; here only LRU's records pay
// for them — but the list head is still a global hot spot: every
// ingestion pushes to it and every query relinks the records it touched,
// which is exactly the contention that caps LRU's digestion rate in
// Figure 10(b).
type LRU[K comparable] struct {
	r *Resources[K]

	mu   sync.Mutex
	head *store.Record // most recently used
	tail *store.Record // least recently used
	len  atomic.Int64
}

// NewLRU returns an empty LRU policy.
func NewLRU[K comparable]() *LRU[K] { return &LRU[K]{} }

// Name implements Policy.
func (l *LRU[K]) Name() string { return "lru" }

// Attach implements Policy.
func (l *LRU[K]) Attach(r *Resources[K]) { l.r = r }

// linked reports whether rec is currently on the list. Callers must hold
// l.mu. Unlinked records have no node, or an empty one, and are not the
// head.
func (l *LRU[K]) linked(rec *store.Record) bool {
	n := rec.LRU
	return n != nil && (n.Prev != nil || n.Next != nil) || l.head == rec
}

// pushHead links rec in as the most recently used record, giving it a
// node if it has none. Callers must hold l.mu.
func (l *LRU[K]) pushHead(rec *store.Record) {
	if rec.LRU == nil {
		rec.LRU = new(store.LRUNode)
	}
	rec.LRU.Prev, rec.LRU.Next = nil, l.head
	if l.head != nil {
		l.head.LRU.Prev = rec
	}
	l.head = rec
	if l.tail == nil {
		l.tail = rec
	}
}

// unlink takes rec off the list, leaving its node empty. Callers must
// hold l.mu.
func (l *LRU[K]) unlink(rec *store.Record) {
	n := rec.LRU
	if n.Prev != nil {
		n.Prev.LRU.Next = n.Next
	} else if l.head == rec {
		l.head = n.Next
	}
	if n.Next != nil {
		n.Next.LRU.Prev = n.Prev
	} else if l.tail == rec {
		l.tail = n.Prev
	}
	*n = store.LRUNode{}
}

// OnIngest pushes the batch to the list head under one lock acquisition
// (arrival order is preserved: the newest record ends up at the head).
func (l *LRU[K]) OnIngest(recs []*store.Record, _ [][]K) {
	l.mu.Lock()
	for _, rec := range recs {
		l.pushHead(rec)
	}
	l.mu.Unlock()
	l.len.Add(int64(len(recs)))
}

// OnAccess moves the touched records to the list head — the per-query
// relinking that makes the global list a contention point.
func (l *LRU[K]) OnAccess(recs []*store.Record) {
	l.mu.Lock()
	for _, rec := range recs {
		if !l.linked(rec) {
			continue // already evicted by a concurrent flush
		}
		if l.head == rec {
			continue
		}
		l.unlink(rec)
		l.pushHead(rec)
	}
	l.mu.Unlock()
}

// Flush evicts records from the list tail until at least target bytes
// are freed or the list empties. The engine is told of one phase,
// counting the records evicted.
func (l *LRU[K]) Flush(target int64) (int64, error) {
	start := time.Now()
	buf := NewVictimBuffer(l.r.Mem, l.r.Sink, true)
	var freed, victims int64
	for freed < target {
		l.mu.Lock()
		rec := l.tail
		if rec == nil {
			l.mu.Unlock()
			break
		}
		l.unlink(rec)
		l.mu.Unlock()
		l.len.Add(-1)
		freed += l.r.evictRecord(rec, buf)
		victims++
	}
	buf.Close()
	l.r.Phase(blackbox.PhaseLRUTail, victims, freed, time.Since(start), nil)
	return freed, nil
}

// OverheadBytes reports the list's cost: one two-pointer node per
// tracked record, plus the flush buffer's peak.
func (l *LRU[K]) OverheadBytes() int64 {
	return l.len.Load()*16 + l.r.Mem.PeakTemp()
}
