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
	// RecordHeader covers the two fixed-size structs of a resident
	// record: the types.Microblog (ID, timestamp, user, followers,
	// location, keyword-slice and text headers: 96 B) and its
	// store.Record wrapper (microblog pointer, score, reference and
	// top-k counters, on-disk mark, log position, LRU node pointer:
	// 48 B), each exactly one Go allocation size class. No ID map slot
	// is charged: the engine finds its records through the index. The
	// keyword strings and the text are charged by RecordBytes.
	RecordHeader = 144
	// PostingSize is charged per index posting. A posting is one
	// *store.Record (8 B) in its entry's pooled posting array, whose
	// capacity is a class of 4, 16, 64, 256 or 1024 postings; the score
	// it ranks by lives in the record. The constant is twice the
	// pointer, and the unused slack of the array's class is not charged.
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
	records  atomic.Int64 // resident records
	data     atomic.Int64 // raw data store bytes
	index    atomic.Int64 // index entries + postings
	peakTemp atomic.Int64 // high-water mark of the flush buffer
	temp     atomic.Int64 // current flush buffer bytes
}

// AddRecords adjusts the resident-record count by n and the raw data
// store gauge by bytes, which are those records' modeled cost.
func (t *Tracker) AddRecords(n, bytes int64) {
	t.records.Add(n)
	t.data.Add(bytes)
}

// Records returns the number of resident records.
func (t *Tracker) Records() int64 { return t.records.Load() }

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
