package policy

import (
	"sync"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
)

// FIFO is the temporal flushing baseline used implicitly or explicitly
// by existing microblog systems (Section V setup): ingestion is tracked
// in temporally disjoint segments, and on full memory the oldest
// segments are flushed to disk wholesale, regardless of whether their
// contents still serve incoming top-k queries.
//
// The only bookkeeping is the per-segment record list (8 bytes per
// record), which is why FIFO shows the lowest overhead in Figure 10(a):
// no per-item usage tracking and no scatter-gather flush buffer — the
// oldest segment itself is the flush unit.
type FIFO[K comparable] struct {
	// SegmentBytes is the modeled size at which the current ingestion
	// segment is sealed and a new one started. The engine sets it to
	// the flush budget so each flush drops whole segments.
	SegmentBytes int64

	r *Resources[K]

	mu   sync.Mutex
	segs []*fifoSegment
	cur  *fifoSegment
}

type fifoSegment struct {
	recs  []*store.Record
	bytes int64 // modeled record + posting bytes covered by the segment
}

// NewFIFO returns a FIFO policy sealing segments at segmentBytes.
func NewFIFO[K comparable](segmentBytes int64) *FIFO[K] {
	if segmentBytes <= 0 {
		segmentBytes = 1 << 20
	}
	return &FIFO[K]{SegmentBytes: segmentBytes}
}

// Name implements Policy.
func (f *FIFO[K]) Name() string { return "fifo" }

// Attach implements Policy.
func (f *FIFO[K]) Attach(r *Resources[K]) { f.r = r }

// OnIngest appends the batch to the current temporal segment under one
// lock acquisition, sealing segments at the byte threshold as it goes.
func (f *FIFO[K]) OnIngest(recs []*store.Record, keys [][]K) {
	f.mu.Lock()
	for i, rec := range recs {
		if f.cur == nil {
			f.cur = &fifoSegment{}
			f.segs = append(f.segs, f.cur)
		}
		f.cur.recs = append(f.cur.recs, rec)
		f.cur.bytes += rec.Bytes() + int64(len(keys[i]))*memsize.PostingSize
		if f.cur.bytes >= f.SegmentBytes {
			f.cur = nil // seal; the next record starts a fresh segment
		}
	}
	f.mu.Unlock()
}

// Flush drops the oldest segments until at least target bytes are freed
// or no sealed data remains. The engine is told of one phase, counting
// the temporal segments dropped.
func (f *FIFO[K]) Flush(target int64) (int64, error) {
	start := time.Now()
	buf := NewVictimBuffer(f.r.Mem, f.r.Sink, false)
	var freed, victims int64
	for freed < target {
		f.mu.Lock()
		if len(f.segs) == 0 {
			f.mu.Unlock()
			break
		}
		seg := f.segs[0]
		f.segs = f.segs[1:]
		if seg == f.cur {
			f.cur = nil // flushing the in-progress segment; seal it
		}
		f.mu.Unlock()
		for _, rec := range seg.recs {
			freed += f.r.evictRecord(rec, buf)
		}
		victims++
	}
	buf.Close()
	f.r.Phase(blackbox.PhaseFIFOSegments, victims, freed, time.Since(start), nil)
	return freed, nil
}

// OverheadBytes reports the segment directory cost: one pointer per
// tracked record.
func (f *FIFO[K]) OverheadBytes() int64 {
	f.mu.Lock()
	var n int64
	for _, s := range f.segs {
		n += int64(len(s.recs))
	}
	f.mu.Unlock()
	return n * 8
}
