// Package policy defines the flushing-policy contract and implements the
// two baselines the paper evaluates against: FIFO (temporally segmented
// flushing, the implicit policy of existing microblog systems) and LRU
// (H-Store-style anti-caching over individual records).
//
// The kFlushing policy itself — the paper's contribution — lives in
// package core and implements the same interface, so the engine and
// every experiment treat all policies uniformly.
package policy

import (
	"fmt"
	"sync"
	"time"

	"kflushing/internal/clock"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/metrics"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// Sink receives the one batch a flush cycle evicts. In production it is
// the engine, which only parks the batch — the policy's part of a cycle
// is choosing and unlinking victims; persisting them is the engine's.
type Sink interface {
	// Flush hands over the cycle's batch: recs are the payloads to
	// persist and from[i] the wrapper recs[i] was taken from, which a
	// failed flush restores or unmarks; dead are the records that died
	// during the cycle — fully released, out of memory, their bytes
	// already refunded — whose wrappers may be recycled once recs are
	// durable. dead may outnumber recs: a record whose payload an
	// earlier partial flush already persisted dies without contributing
	// a FlushRecord. Ownership of the slices transfers to the sink; the
	// caller keeps no reference. Flush runs under the engine's flush
	// gate and must not block.
	Flush(recs []disk.FlushRecord, from, dead []*store.Record)
}

// Resources grants a policy access to the engine's shared structures. A
// policy receives it once via Attach before any other call.
type Resources[K comparable] struct {
	// Index is the in-memory inverted index for the attribute. The raw
	// data store is the records its postings reference; Mem counts them.
	Index *index.Index[K]
	// Mem is the engine's memory tracker.
	Mem *memsize.Tracker
	// Sink receives evicted records.
	Sink Sink
	// KeysOf extracts the attribute keys of a microblog.
	KeysOf func(*types.Microblog) []K
	// Clock is the engine time source.
	Clock clock.Clock
	// Metrics receives per-phase flushing instrumentation; may be nil
	// (direct policy tests).
	Metrics *metrics.Registry
	// OnPhase receives each executed phase of a flush cycle — its
	// blackbox.Phase* number, eviction units, bytes freed, duration and,
	// when the phase fanned out over workers, each worker's duration —
	// for the engine's flight recorder; may be nil (direct policy
	// tests). Policies report through Phase.
	OnPhase func(phase int, victims, freed, nanos int64, workerNanos []int64)
}

// Phase reports one executed flush phase to the engine, if one listens.
func (r *Resources[K]) Phase(phase int, victims, freed int64, d time.Duration, workerNanos []int64) {
	if r.OnPhase != nil {
		r.OnPhase(phase, victims, freed, d.Nanoseconds(), workerNanos)
	}
}

// Remove takes e's postings in scope for which keep returns false out
// of the index (index.Entry.Remove) and releases their records,
// returning the budget-relevant bytes freed and whether the postings
// came from a complete entry. kFlushing's three phases evict through it.
func (r *Resources[K]) Remove(e *index.Entry[K], k int, scope index.Scope, keep func(*store.Record) bool, buf *VictimBuffer) (int64, bool) {
	removed, freed, complete := e.Remove(k, scope, keep)
	for _, rec := range removed {
		freed += r.release(rec, buf)
	}
	r.Index.RecyclePostings(removed)
	return freed, complete
}

// evictRecord takes rec's posting under each of its keys out of the
// index and releases it per posting, returning the budget-relevant
// bytes freed. FIFO and LRU evict through it.
func (r *Resources[K]) evictRecord(rec *store.Record, buf *VictimBuffer) int64 {
	var freed int64
	for _, key := range r.KeysOf(rec.MB) {
		if e := r.Index.Entry(key); e != nil {
			if n := e.RemoveRecord(rec, r.Index.K()); n > 0 {
				freed += n + r.release(rec, buf)
			}
		}
	}
	return freed
}

// release drops the index reference of one posting taken out of the
// index. The last reference takes the record out of memory — its count
// and bytes off the tracker — into the victim buffer and returns its
// bytes; until then the buffer persists a copy, so disk search stays
// complete for the key the posting left.
func (r *Resources[K]) release(rec *store.Record, buf *VictimBuffer) int64 {
	left := rec.Unref()
	if failpoint.Enabled {
		r.check(rec, left)
	}
	if left > 0 {
		buf.AddPartial(rec)
		return 0
	}
	bytes := rec.Bytes()
	r.Mem.AddRecords(-1, -bytes)
	buf.Add(rec)
	return bytes
}

// check stops a fault-injection build on a reference count the
// removals got wrong: a record released more often than it was
// indexed, a top-k membership counter below zero, or a record released
// for the last time while a live entry still holds a posting of it.
func (r *Resources[K]) check(rec *store.Record, left int32) {
	if left < 0 {
		panic(fmt.Sprintf("policy: record %d released %d times more than it was indexed", rec.MB.ID, -left))
	}
	if c := rec.TopKCount(); c < 0 {
		panic(fmt.Sprintf("policy: record %d has top-k counter %d", rec.MB.ID, c))
	}
	if left > 0 {
		return
	}
	for _, key := range r.KeysOf(rec.MB) {
		if e := r.Index.Entry(key); e != nil && e.Contains(rec) {
			panic(fmt.Sprintf("policy: record %d released while entry %v still holds it", rec.MB.ID, key))
		}
	}
}

// Policy selects flush victims when memory fills. Implementations must
// tolerate ingestion and queries proceeding concurrently with Flush —
// the paper requires flushing to run on its own thread without stalling
// digestion.
type Policy[K comparable] interface {
	// Name identifies the policy in stats and experiment output.
	Name() string
	// Attach wires the policy to the engine's resources; called once
	// before any other method.
	Attach(r *Resources[K])
	// OnIngest runs after a batch of records has been stored and
	// indexed; keys[i] are the attribute keys of recs[i]. Ingestion is
	// batched end to end, so policies take any per-batch lock once —
	// a per-record ingest arrives as a batch of one.
	OnIngest(recs []*store.Record, keys [][]K)
	// Flush evicts at least target bytes when possible, returning the
	// bytes actually freed from the budget-relevant gauges.
	Flush(target int64) (freed int64, err error)
	// OverheadBytes reports the policy's current bookkeeping memory —
	// the quantity of the paper's Figure 10(a) — including the peak
	// temporary flush buffer.
	OverheadBytes() int64
}

// AccessObserver is implemented by access-ordered policies (LRU): the
// engine reports which memory records each answer used. A policy that
// does not implement it costs a search no bookkeeping.
type AccessObserver interface {
	// OnAccess runs after a query touched the given records from memory.
	OnAccess(recs []*store.Record)
}

// VictimBuffer accumulates records whose last reference was trimmed,
// then hands them to the sink in one batch — the paper's temporary
// main-memory buffer that reduces the number of I/O operations. When
// chargeTemp is set its occupancy is charged to the tracker's temporary
// gauge (FIFO flushes whole segments and needs no such buffer, so it
// opts out).
//
// Add and AddPartial are safe for concurrent use, so a flush phase may
// fan eviction work out over shard workers sharing one buffer; Close
// must not race with further additions.
type VictimBuffer struct {
	mem        *memsize.Tracker
	sink       Sink
	chargeTemp bool

	mu    sync.Mutex
	recs  []disk.FlushRecord
	from  []*store.Record // from[i] is the wrapper recs[i] was taken from
	dead  []*store.Record
	bytes int64
}

// NewVictimBuffer returns an empty buffer handing its batch to sink on
// Close.
func NewVictimBuffer(mem *memsize.Tracker, sink Sink, chargeTemp bool) *VictimBuffer {
	return &VictimBuffer{mem: mem, sink: sink, chargeTemp: chargeTemp}
}

// Add appends a fully-released record. If an earlier partial flush
// already wrote the record's payload to disk, the buffer skips the
// duplicate write; the memory was still freed either way. Either way
// the record is dead — unreferenced and out of memory — so it joins
// the dead list handed to the sink on Close.
func (b *VictimBuffer) Add(rec *store.Record) {
	b.mu.Lock()
	b.dead = append(b.dead, rec)
	b.mu.Unlock()
	if rec.MarkOnDisk() {
		b.append(rec)
	}
}

// AddPartial writes a record that remains memory-resident (its reference
// count is still positive) but has been trimmed from at least one index
// entry. Persisting it now keeps disk answers complete for the keys it
// is no longer indexed under in memory. At most one copy is ever
// written; the disk directory lists the record under all of its keys.
func (b *VictimBuffer) AddPartial(rec *store.Record) {
	if !rec.MarkOnDisk() {
		return
	}
	b.append(rec)
}

func (b *VictimBuffer) append(rec *store.Record) {
	bytes := rec.Bytes()
	b.mu.Lock()
	b.recs = append(b.recs, disk.FlushRecord{MB: rec.MB, Score: rec.Score, LogSeq: rec.LogSeq, LogOrd: rec.LogOrd, ReplaySeq: rec.ReplaySeq})
	b.from = append(b.from, rec)
	b.bytes += bytes
	b.mu.Unlock()
	if b.chargeTemp && b.mem != nil {
		b.mem.AddTemp(bytes)
	}
}

// Len returns the number of buffered records.
func (b *VictimBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Bytes returns the modeled size of buffered records.
func (b *VictimBuffer) Bytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// Close hands the buffered batch — and ownership of its slices — to the
// sink and releases the temporary-buffer charge.
func (b *VictimBuffer) Close() {
	b.mu.Lock()
	recs, from, bytes, dead := b.recs, b.from, b.bytes, b.dead
	b.recs, b.from, b.bytes, b.dead = nil, nil, 0, nil
	b.mu.Unlock()
	if b.sink != nil && (len(recs) > 0 || len(dead) > 0) {
		b.sink.Flush(recs, from, dead)
	}
	if b.chargeTemp && b.mem != nil {
		b.mem.AddTemp(-bytes)
	}
}
