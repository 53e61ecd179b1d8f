// Package store implements the raw data store: the in-memory container
// holding complete microblog records (Figure 3 of the paper).
//
// Index entries hold postings that point at records here. Each record
// carries a reference count (the paper's pcount) equal to the number of
// index entries currently referencing it. When a flushing phase trims the
// last reference, the record leaves the store and enters the flush
// buffer. Records also embed the intrusive hooks the LRU baseline needs
// (the paper notes H-Store embeds its LRU pointers in the per-microblog
// state to reduce overhead) and the top-k membership counter used by the
// kFlushing-MK extension.
package store

import (
	"sync"
	"sync/atomic"

	"kflushing/internal/memsize"
	"kflushing/internal/types"
)

// Record wraps one stored microblog with the bookkeeping every policy
// needs. Records are created by the ingestion path and shared by
// reference; only the designated atomic fields may be mutated after
// creation.
type Record struct {
	// MB is the immutable microblog payload.
	MB *types.Microblog
	// Score is the ranking score computed at arrival (Section IV-B).
	Score float64
	// Bytes is the modeled memory cost of this record in the raw data
	// store.
	Bytes int64

	// pcount is the number of index entries referencing this record.
	pcount atomic.Int32
	// topk counts the index entries in which this record currently
	// ranks inside the top-k. Maintained only when the index is built
	// with top-k tracking (kFlushing-MK); zero otherwise.
	topk atomic.Int32

	// onDisk records whether the payload has already been written to a
	// disk segment, so a record flushed once (e.g. when a trim left it
	// memory-resident but index-invisible under one key) is never
	// serialized twice.
	onDisk atomic.Bool

	// LogSeq is the write-ahead-log file framing the record, and LogOrd
	// the frame's ordinal in it: a durable store's flush posts the record
	// at that frame, and the record's hold keeps the file on disk until it
	// has. ReplaySeq is the log file whose replay brings the record back —
	// LogSeq, or a newer file whose reference frame lists it — and the
	// record's cover keeps that file in the log's replay set until the
	// record has left memory for a durably installed segment. Written
	// before the record is published and, afterwards, only under the
	// engine's flush gate (reclaim, recovery); read under the gate or after
	// the dead record was handed over by it.
	LogSeq, LogOrd, ReplaySeq uint32

	// LRUPrev and LRUNext are intrusive doubly-linked-list hooks owned
	// exclusively by the LRU policy; nil under every other policy.
	LRUPrev, LRUNext *Record
}

// MarkOnDisk atomically claims the right to serialize this record to
// disk, returning true exactly once.
func (r *Record) MarkOnDisk() bool { return r.onDisk.CompareAndSwap(false, true) }

// OnDisk reports whether the record has been written to a disk segment.
func (r *Record) OnDisk() bool { return r.onDisk.Load() }

// UnmarkOnDisk withdraws a MarkOnDisk claim after the serialization it
// licensed failed: the record never reached a durable segment, so a
// later flush must be allowed to write it again.
func (r *Record) UnmarkOnDisk() { r.onDisk.Store(false) }

// NewRecord builds a record for m with the given pre-computed score,
// charging its modeled size.
func NewRecord(m *types.Microblog, score float64) *Record {
	return &Record{
		MB:    m,
		Score: score,
		Bytes: memsize.RecordBytes(len(m.Text), m.Keywords),
	}
}

// ResetRecord reinitializes a recycled record for a new microblog,
// clearing every counter, mark, and intrusive hook of its previous
// life. The caller asserts the record is provably dead: durably
// flushed, unreferenced, off the store, and past its reader quarantine.
func ResetRecord(r *Record, m *types.Microblog, score float64) {
	r.MB = m
	r.Score = score
	r.Bytes = memsize.RecordBytes(len(m.Text), m.Keywords)
	r.pcount.Store(0)
	r.topk.Store(0)
	r.onDisk.Store(false)
	r.LogSeq, r.LogOrd, r.ReplaySeq = 0, 0, 0
	r.LRUPrev, r.LRUNext = nil, nil
}

// Ref increments the reference count by n and returns the new value.
func (r *Record) Ref(n int32) int32 { return r.pcount.Add(n) }

// Unref decrements the reference count by one and returns the new value.
// The caller owning the transition to zero is responsible for removing
// the record from the store and flushing it.
func (r *Record) Unref() int32 { return r.pcount.Add(-1) }

// PCount returns the current reference count.
func (r *Record) PCount() int32 { return r.pcount.Load() }

// TopKRef adjusts the top-k membership counter by delta and returns the
// new value.
func (r *Record) TopKRef(delta int32) int32 { return r.topk.Add(delta) }

// TopKCount returns the number of entries in which the record is
// currently a top-k posting.
func (r *Record) TopKCount() int32 { return r.topk.Load() }

// shardCount is the number of store shards; a power of two so the shard
// selector is a mask.
const shardCount = 64

type shard struct {
	mu   sync.RWMutex
	recs map[types.ID]*Record
}

// Store is a sharded ID→record map. It tracks the modeled byte size of
// its contents through the engine's Tracker (the caller adjusts gauges;
// the store itself only counts records and bytes for introspection).
type Store struct {
	shards [shardCount]shard
	count  atomic.Int64
	bytes  atomic.Int64
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].recs = make(map[types.ID]*Record)
	}
	return s
}

func (s *Store) shardFor(id types.ID) *shard {
	return &s.shards[uint64(id)&(shardCount-1)]
}

// Put inserts rec under its microblog ID. Inserting a duplicate ID
// replaces the previous record; ingestion assigns unique IDs so this
// only happens in tests.
//
//kfvet:noalloc
func (s *Store) Put(rec *Record) {
	sh := s.shardFor(rec.MB.ID)
	sh.mu.Lock()
	prev, existed := sh.recs[rec.MB.ID]
	sh.recs[rec.MB.ID] = rec
	sh.mu.Unlock()
	s.count.Add(1)
	s.bytes.Add(rec.Bytes)
	if existed {
		s.count.Add(-1)
		s.bytes.Add(-prev.Bytes)
	}
}

// Get returns the record with the given ID, or nil if absent.
func (s *Store) Get(id types.ID) *Record {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec := sh.recs[id]
	sh.mu.RUnlock()
	return rec
}

// Remove deletes the record with the given ID, returning it, or nil if
// absent.
//
//kfvet:noalloc
func (s *Store) Remove(id types.ID) *Record {
	sh := s.shardFor(id)
	sh.mu.Lock()
	rec, ok := sh.recs[id]
	if ok {
		delete(sh.recs, id)
	}
	sh.mu.Unlock()
	if ok {
		s.count.Add(-1)
		s.bytes.Add(-rec.Bytes)
	}
	return rec
}

// Len returns the number of stored records.
func (s *Store) Len() int64 { return s.count.Load() }

// Bytes returns the modeled byte total of stored records.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// Range calls fn for every stored record until fn returns false. The
// iteration holds one shard read lock at a time; fn must not call back
// into the store.
func (s *Store) Range(fn func(*Record) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.recs {
			if !fn(rec) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}
