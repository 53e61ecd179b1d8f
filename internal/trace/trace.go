// Package trace records the end-to-end execution of one search query:
// the memory probe outcome per index entry, the hit decision, and (on a
// memory miss) every disk segment consulted with its Bloom filter
// outcome, directory probes, cache hits, and records read — plus
// nanosecond stage timings. It exists to answer "why did THIS query
// miss, and what did the miss cost", which aggregate counters cannot.
//
// Tracing is strictly opt-in. A nil *Trace disables it: every method is
// nil-receiver safe and returns immediately, so the disabled path adds
// no allocations and no atomic traffic to the query hot path (verified
// by BenchmarkSearchTraceDisabled in internal/engine).
// TestNilTraceIsNoOp calls every exported method on a nil *Trace and a
// nil *DiskProbe.
package trace

import (
	"time"
)

// Trace accumulates the record of one query. Create with New; pass nil
// to disable. Every field is written by the single query goroutine.
type Trace struct {
	// Op is the query operator ("single", "or", "and").
	Op string `json:"op"`
	// K is the effective result limit.
	K int `json:"k"`
	// Keys are the encoded search keys.
	Keys []string `json:"keys"`

	// Entries is the memory probe outcome, one element per queried key
	// in request order.
	Entries []EntryProbe `json:"entries"`
	// MemoryHit reports whether memory alone supplied the full answer.
	MemoryHit bool `json:"memory_hit"`
	// HitReason is why memory's answer is exact: "filled" (every key
	// holds k postings above all it lost, the paper's hit), "complete"
	// (any other provable hit: a key lost nothing, or the merged k-th
	// outranks all the keys lost), or empty on a miss.
	HitReason string `json:"hit_reason,omitempty"`
	// MemoryItems is the number of candidates memory contributed.
	MemoryItems int `json:"memory_items"`

	// Disk is present only when the disk tier was consulted.
	Disk *DiskProbe `json:"disk,omitempty"`

	// Items is the number of answers returned.
	Items int `json:"items"`
	// Stages are the nanosecond timings of each execution stage, in
	// execution order ("memory", "disk", "total").
	Stages []Stage `json:"stages"`
}

// New returns an enabled, empty trace.
func New() *Trace { return &Trace{} }

// Enabled reports whether the trace is collecting (non-nil).
func (t *Trace) Enabled() bool { return t != nil }

// Stage appends one stage timing measured from start. Nil-safe: the
// disabled (nil) trace must not cost an allocation on the hot path.
//
//kfvet:noalloc whennil
func (t *Trace) Stage(name string, start time.Time) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, Stage{Name: name, Nanos: time.Since(start).Nanoseconds()})
}

// AddEntry appends one memory-probe outcome. Nil-safe.
//
//kfvet:noalloc whennil
func (t *Trace) AddEntry(ep EntryProbe) {
	if t == nil {
		return
	}
	t.Entries = append(t.Entries, ep)
}

// BeginDisk marks the disk tier consulted and returns the probe to
// fill. Nil-safe (returns nil, which DiskProbe methods tolerate).
//
//kfvet:noalloc whennil
func (t *Trace) BeginDisk() *DiskProbe {
	if t == nil {
		return nil
	}
	t.Disk = &DiskProbe{}
	return t.Disk
}

// Stage is one timed execution stage.
type Stage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// EntryProbe is the outcome of consulting one in-memory index entry.
type EntryProbe struct {
	// Key is the encoded search key.
	Key string `json:"key"`
	// Found reports whether the index holds an entry for the key.
	Found bool `json:"found"`
	// Postings is the entry's posting count (0 when not found).
	Postings int `json:"postings"`
	// KFilled reports whether the entry holds k postings — the
	// per-entry half of the paper's hit condition.
	KFilled bool `json:"k_filled"`
	// Complete reports whether no posting of the key ever left memory:
	// what memory holds of it, fewer than k postings or none, is its
	// whole answer.
	Complete bool `json:"complete"`
}

// DiskProbe is the record of one disk-tier search.
type DiskProbe struct {
	// Segments are the per-segment outcomes in the order the search
	// consulted them: newest first.
	Segments []SegmentProbe `json:"segments"`
	// CacheHits / CacheMisses / RecordsRead aggregate the record-read
	// activity across all segments.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	RecordsRead int `json:"records_read"`
	// Items is the number of candidates the disk search returned.
	Items int `json:"items"`
}

// AddSegment appends one segment outcome and folds its read counters
// into the probe totals; nil-safe.
//
//kfvet:noalloc whennil
func (d *DiskProbe) AddSegment(sp SegmentProbe) {
	if d == nil {
		return
	}
	d.Segments = append(d.Segments, sp)
	d.CacheHits += sp.CacheHits
	d.CacheMisses += sp.CacheMisses
	d.RecordsRead += sp.RecordsRead
}

// SegmentProbe is the outcome of consulting one disk segment.
type SegmentProbe struct {
	// Segment is the segment file name.
	Segment string `json:"segment"`
	// MaxScore is the segment's best record score, the pruning bound.
	MaxScore float64 `json:"max_score"`
	// Pruned reports the segment was skipped because k results above
	// its best score were already in hand; nothing below is set.
	Pruned bool `json:"pruned,omitempty"`

	// Bloom filter outcome: probes run, keys ruled out, and whether any
	// key survived (v1 segments have no filter: zero probes, passed).
	BloomProbes int  `json:"bloom_probes"`
	BloomSkips  int  `json:"bloom_skips"`
	BloomPassed bool `json:"bloom_passed"`

	// DirProbes is the number of per-key directory lookups performed.
	DirProbes int `json:"dir_probes"`
	// Candidates is the number of ranked record ordinals selected.
	Candidates int `json:"candidates"`

	// Record-read activity for the selected candidates.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	RecordsRead int `json:"records_read"`

	// Items is the number of ranked matches the segment contributed.
	Items int `json:"items"`
	// Nanos is the time spent searching the segment.
	Nanos int64 `json:"nanos"`
}
