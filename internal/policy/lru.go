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
// last use; eviction pops from the tail. The list pointers are embedded
// in the records themselves — as the paper notes H-Store does to reduce
// memory overhead — but the list head is still a global hot spot: every
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
// l.mu. Unlinked records have both hooks nil and are not the head.
func (l *LRU[K]) linked(rec *store.Record) bool {
	return rec.LRUPrev != nil || rec.LRUNext != nil || l.head == rec
}

func (l *LRU[K]) pushHead(rec *store.Record) {
	rec.LRUPrev = nil
	rec.LRUNext = l.head
	if l.head != nil {
		l.head.LRUPrev = rec
	}
	l.head = rec
	if l.tail == nil {
		l.tail = rec
	}
}

func (l *LRU[K]) unlink(rec *store.Record) {
	if rec.LRUPrev != nil {
		rec.LRUPrev.LRUNext = rec.LRUNext
	} else if l.head == rec {
		l.head = rec.LRUNext
	}
	if rec.LRUNext != nil {
		rec.LRUNext.LRUPrev = rec.LRUPrev
	} else if l.tail == rec {
		l.tail = rec.LRUPrev
	}
	rec.LRUPrev, rec.LRUNext = nil, nil
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

// OverheadBytes reports the embedded list-pointer cost: two pointers per
// tracked record, plus the flush buffer's peak.
func (l *LRU[K]) OverheadBytes() int64 {
	return l.len.Load()*16 + l.r.Mem.PeakTemp()
}
