// Package memsize implements the explicit memory-accounting model.
//
// Go exposes no per-allocation hooks, so the memory budget that triggers
// flushing is enforced against a byte-cost model rather than the runtime
// heap. The model charges every structure the paper's Figure 10(a)
// discusses: raw records, index postings, index entries, and — tracked
// separately so the flushing-overhead experiment can report it — the
// per-policy bookkeeping (LRU list nodes, kFlushing's per-entry
// timestamps and over-k list, FIFO's segment directory, and the
// temporary flush buffer).
package memsize

import "sync/atomic"

// Costs of the individual structures, in bytes. The values are derived
// from the actual Go struct layouts (pointer = 8 bytes on the evaluation
// platform) and kept as named constants so the model is auditable.
const (
	// RecordHeader covers the fixed part of a stored record: the
	// Microblog struct header (ID, timestamp, user, followers, geo,
	// slice/string headers ≈ 96 B) plus the store's record wrapper
	// (refcount, score, list hooks ≈ 48 B) and map-slot overhead.
	RecordHeader = 160
	// PostingSize is one index posting: a record pointer plus the
	// pre-computed ranking score.
	PostingSize = 16
	// EntryHeader is the fixed cost of one index entry: key header,
	// mutex, last-arrival and last-queried timestamps, slice header,
	// and hash-map slot.
	EntryHeader = 96
	// KeywordByte is charged per byte of keyword text stored in an
	// entry key or record keyword slice.
	KeywordByte = 1
)

// RecordBytes returns the modeled cost of keeping one microblog with the
// given text and keyword lengths in the raw data store.
func RecordBytes(textLen int, keywords []string) int64 {
	n := int64(RecordHeader + textLen)
	for _, kw := range keywords {
		n += int64(16 + KeywordByte*len(kw)) // string header + bytes
	}
	return n
}

// EntryBytes returns the fixed cost of one index entry for a key whose
// encoded size is keyLen bytes (0 for integer keys).
func EntryBytes(keyLen int) int64 {
	return int64(EntryHeader + KeywordByte*keyLen)
}

// Tracker aggregates the memory gauges of one engine instance. All
// methods are safe for concurrent use. Gauges never go negative in a
// correct system; the invariant is enforced by tests, not at runtime.
type Tracker struct {
	data     atomic.Int64 // raw data store bytes
	index    atomic.Int64 // index entries + postings
	peakTemp atomic.Int64 // high-water mark of the flush buffer
	temp     atomic.Int64 // current flush buffer bytes
}

// AddData adjusts the raw data store gauge by delta bytes.
func (t *Tracker) AddData(delta int64) { t.data.Add(delta) }

// AddIndex adjusts the index gauge by delta bytes.
func (t *Tracker) AddIndex(delta int64) { t.index.Add(delta) }

// AddTemp adjusts the temporary flush-buffer gauge, maintaining its peak.
func (t *Tracker) AddTemp(delta int64) {
	v := t.temp.Add(delta)
	for {
		p := t.peakTemp.Load()
		if v <= p || t.peakTemp.CompareAndSwap(p, v) {
			return
		}
	}
}

// Data returns the raw data store bytes.
func (t *Tracker) Data() int64 { return t.data.Load() }

// Index returns the index bytes (entries plus postings).
func (t *Tracker) Index() int64 { return t.index.Load() }

// PeakTemp returns the high-water mark of the temporary flush buffer.
func (t *Tracker) PeakTemp() int64 { return t.peakTemp.Load() }

// Used returns the budget-relevant total: data plus index. Policy
// overhead and the flush buffer are excluded from the budget (as in the
// paper, which reports them separately as "flushing overhead"): the
// policies report their bookkeeping through OverheadBytes, and the flush
// buffer's high-water mark is PeakTemp.
func (t *Tracker) Used() int64 { return t.data.Load() + t.index.Load() }
