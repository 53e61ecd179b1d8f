// Package engine assembles the full microblogs data management pipeline
// of Figure 2: the stream is digested into the raw data store and the
// in-memory inverted index; a configurable flushing policy evicts to the
// disk tier when the memory budget fills; and incoming top-k queries are
// answered from memory when possible, falling back to disk on a miss.
//
// The engine is generic over the attribute key type, so the same code
// serves keyword search (K = string), spatial search (K = spatial.Cell),
// and user-timeline search (K = uint64) — the paper's Section IV-A
// extensibility in one implementation.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/metrics"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/ranking"
	"kflushing/internal/store"
	"kflushing/internal/trace"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// ErrNoKeys reports an ingested microblog carrying no keys for this
// engine's attribute (e.g. a tweet without hashtags on a keyword
// engine); such records are not digestible.
var ErrNoKeys = errors.New("engine: microblog has no keys for this attribute")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("engine: closed")

// Config assembles an engine. Attr, DiskDir and Policy are required.
type Config[K comparable] struct {
	// K is the default top-k result limit (paper default: 20).
	K int
	// MemoryBudget is the modeled main-memory budget in bytes.
	MemoryBudget int64
	// FlushFraction is the budget ratio B flushed per invocation
	// (paper default: 0.10).
	FlushFraction float64
	// Attr is the search attribute: its keys, their hash, size model and
	// disk encoding, and its name, which a stream of several engines
	// puts on the error it returns when this one refuses a batch.
	Attr attr.Spec[K]
	// Ranker scores records at arrival; nil selects temporal ranking.
	Ranker ranking.Ranker
	// Clock is the time source; nil selects an auto-advancing logical
	// clock.
	Clock clock.Clock
	// DiskDir is the disk tier directory.
	DiskDir string
	// DiskLevelFanout bounds the disk tier's per-level segment count;
	// 0 selects the disk package default.
	DiskLevelFanout int
	// DiskMaxSegments: only the sign matters. Negative disables disk
	// compaction (every flush stays its own L0 segment); otherwise
	// DiskLevelFanout governs.
	DiskMaxSegments int
	// DiskRetry bounds transient-disk-error retries: flush-cycle tier
	// writes and memory-miss record reads are retried with backoff
	// before failing (and, for writes, before the engine enters
	// degraded read-only mode). The zero value disables retrying.
	DiskRetry disk.RetryPolicy
	// Durable keeps a write-ahead log of ingested records in DiskDir:
	// memory contents survive restarts (replayed on New) and crashes
	// (torn tails are tolerated), and the log's files are the tier's
	// record files, so a flush writes only a directory over frames the
	// log already holds. The tier's open refuses a log an older build
	// kept in DiskDir/wal with disk.ErrNeedsUpgrade, naming the commit
	// whose `kflushctl upgrade` moves it in (DESIGN.md §7.1). False
	// keeps only flushed records, the paper's model.
	Durable bool
	// WALOptions tunes the write-ahead log when Durable is set.
	WALOptions wal.Options
	// Policy is the flushing policy instance with the index features it
	// needs.
	Policy policy.Choice[K]
	// SyncFlush runs flush cycles, and the compaction pass after each,
	// inline on the ingesting goroutine instead of a background flushing
	// thread. Deterministic; used by tests and experiments.
	SyncFlush bool
	// AllocPolicy selects how hot-path structures are allocated: the
	// zero value (PolicyPooled) recycles posting arrays, record
	// wrappers and ingest scratch through slab pools; PolicyHeap
	// allocates everything from the Go heap.
	AllocPolicy alloc.Policy
	// SlowQueryNanos is the slow-query threshold: a Search whose wall
	// time reaches it records one query_slow event — stage timings and
	// the encoded keys — in the flight recorder. 0 disables. A search
	// below the threshold pays one comparison.
	SlowQueryNanos int64
	// Stream, when set, is the stream the engine joins: its log, IDs and
	// ingest path are the stream's, shared with the other engines that
	// join it, and the stream's Open starts them all. The first engine to
	// join keeps the log in its DiskDir, and its Durable, WALOptions,
	// Clock, Ranker and AllocPolicy are the stream's. Nil makes the engine
	// a stream of its own, started by New.
	Stream *Stream
}

// Engine is one attribute's complete data management system. All
// methods are safe for concurrent use.
type Engine[K comparable] struct {
	cfg Config[K]
	mem memsize.Tracker
	idx *index.Index[K]
	// store is the raw data store: the records idx posts, counted by
	// mem. It is a view, not a map; the engine finds its records
	// through the index.
	store Resident[K]
	tier  *disk.Tier[K]
	pol   policy.Policy[K]
	reg   metrics.Registry
	clk   clock.Clock
	// obs is the policy when it observes query accesses (LRU): only
	// then does Search collect the memory records an answer used.
	obs policy.AccessObserver

	// bbox is the always-on flight recorder, the engine's only event
	// store: per-subsystem event rings stamped with a global sequence,
	// dumped to DiskDir on degraded entry and panic. The flush log and
	// the slow-query log are views over it.
	bbox *blackbox.Recorder
	// cycle is the ID of the flush cycle in progress, stamped on every
	// event the cycle emits. Only the flushing goroutine touches it,
	// under flushMu.
	cycle uint64

	// stream fronts the engine's ingestion, log and IDs; slot is the
	// engine's place in it (0: the log's owner).
	stream *Stream
	slot   int
	wal    *wal.Log
	// recovering is set while the stream replays the log: files not yet
	// replayed have no survivors in memory to reference, so the reclaim
	// at the end of a (recovery) flush cycle stands down. replayed holds
	// the replayed records not yet handed to the policy.
	recovering bool
	replayed   replayChunk[K]

	lastFlushUsed atomic.Int64
	// flushMu serializes flush cycles: background flushes take it with
	// TryLock (at most one runs; ingestion never blocks), FlushNow with
	// Lock (blocking deterministically until the in-flight cycle ends),
	// and Close holds it across shutdown to drain background flushing.
	flushMu   sync.Mutex
	lastError atomic.Value // error
	closed    atomic.Bool

	// degraded is the read-only mode entered when tier writes fail
	// persistently; degradedReason holds the entering error's message.
	degraded       atomic.Bool
	degradedReason atomic.Value // string

	// recycler quarantines dead record wrappers (durably flushed,
	// unreferenced, off the store) until no in-flight search can hold
	// their pointer, then feeds them back to ingestion. Nil under
	// AllocPolicy=heap.
	recycler *alloc.Recycler[*store.Record]
	// scratch pools per-batch ingest scratch slices across IngestBatch
	// calls. Nil under AllocPolicy=heap.
	scratch *sync.Pool
}

// ingestScratch is the engine's share of one ingest batch and its
// reusable working set: none of these slices outlive the batch (policies
// copy what they keep), so one arena serves batch after batch.
type ingestScratch[K comparable] struct {
	e *Engine[K]
	// at is the frame index of each staged record, recKeys its keys.
	at      []int
	recs    []*store.Record
	recKeys [][]K
}

// replayChunk is the replayed records waiting for the policy's OnIngest,
// and the keys of the record being delivered.
type replayChunk[K comparable] struct {
	recs    []*store.Record
	recKeys [][]K
	keys    []K
	total   int
}

// New builds and wires an engine from cfg.
func New[K comparable](cfg Config[K]) (*Engine[K], error) {
	if a := cfg.Attr; a.KeysOf == nil || a.Hash == nil || a.Len == nil || a.Encode == nil || a.Decode == nil {
		return nil, fmt.Errorf("engine: Attr is required, with KeysOf, Hash, Len, Encode and Decode")
	}
	if cfg.Policy.Policy == nil {
		return nil, fmt.Errorf("engine: Policy is required")
	}
	if cfg.K <= 0 {
		cfg.K = 20
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = 64 << 20
	}
	if cfg.FlushFraction <= 0 || cfg.FlushFraction > 1 {
		cfg.FlushFraction = 0.10
	}
	if cfg.Ranker == nil {
		cfg.Ranker = ranking.Temporal{}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewLogical(1, 1)
	}
	e := &Engine[K]{cfg: cfg, clk: cfg.Clock, bbox: blackbox.New()}
	e.recycler = alloc.NewRecycler[*store.Record](cfg.AllocPolicy)
	if cfg.AllocPolicy == alloc.PolicyPooled {
		e.scratch = &sync.Pool{New: func() any { return &ingestScratch[K]{} }}
	}
	e.idx = index.New(index.Config[K]{
		Hash:       cfg.Attr.Hash,
		KeyLen:     cfg.Attr.Len,
		K:          cfg.K,
		TrackTopK:  cfg.Policy.TrackTopK,
		TrackOverK: cfg.Policy.TrackOverK,
		Tracker:    &e.mem,
		Pool:       alloc.NewSlicePool[*store.Record](cfg.AllocPolicy),
		// The departure record is policy bookkeeping, a fixed 1/64 of
		// the budget up to its cap, outside the modeled memory
		// (Stats.PolicyOverhead).
		DepartedBytes: cfg.MemoryBudget / 64,
	})
	e.store = Resident[K]{mem: &e.mem, idx: e.idx}
	st := cfg.Stream
	if st == nil {
		st = NewStream()
	}
	if err := st.checkDir(cfg.DiskDir); err != nil {
		return nil, err
	}
	logs := st.logsFor(cfg.DiskDir)
	tier, err := disk.Open(disk.Config[K]{
		Dir:         cfg.DiskDir,
		KeysOf:      cfg.Attr.KeysOf,
		Encode:      cfg.Attr.Encode,
		LevelFanout: cfg.DiskLevelFanout,
		MaxSegments: cfg.DiskMaxSegments,
		Retry:       cfg.DiskRetry,
		Recorder:    e.bbox,
		Logged:      st.durable(cfg.Durable),
		Logs:        logs,
	})
	if err != nil {
		return nil, err
	}
	e.tier = tier
	// Whatever the tier holds has left memory: its keys start with the
	// best score of each directory holding them, and the tier's highest
	// record ID, as their ceiling, before replay or ingest creates an
	// entry.
	tierMaxID := types.ID(tier.MaxRecordID())
	tier.RangeKeys(func(ek string, maxScore float64) {
		if key, ok := cfg.Attr.Decode(ek); ok {
			e.idx.Depart(key, maxScore, tierMaxID)
		}
	})
	e.stream, e.slot = st, st.join(e)
	e.pol = cfg.Policy.Policy
	e.obs, _ = e.pol.(policy.AccessObserver)
	e.pol.Attach(&policy.Resources[K]{
		Index:   e.idx,
		Mem:     &e.mem,
		KeysOf:  cfg.Attr.KeysOf,
		OnPhase: e.recordPhase,
	})
	// Join the process-level dump registry so a panic handler (or
	// kflushctl-driven DumpAll) can snapshot this engine's rings.
	// DiskDir is unique per engine, so it doubles as the key.
	blackbox.RegisterDumper(cfg.DiskDir, func(reason string) (string, error) {
		return e.bbox.Dump(cfg.DiskDir, reason)
	})
	if cfg.Stream == nil {
		if err := st.Open(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// cfgOf, maxRecordID, attachLog and setRecovering are the engine's
// member view for its stream.
func (e *Engine[K]) cfgOf() memberConfig {
	return memberConfig{
		name:     e.cfg.Attr.Name,
		dir:      e.cfg.DiskDir,
		budget:   e.cfg.MemoryBudget,
		durable:  e.cfg.Durable,
		walOpt:   e.cfg.WALOptions,
		pooled:   e.cfg.AllocPolicy == alloc.PolicyPooled,
		recorder: e.bbox,
	}
}

// maxRecordID is the highest record ID the engine's tier holds: the
// stream's IDs start past every member's (replay may raise them further).
func (e *Engine[K]) maxRecordID() uint64 { return e.tier.MaxRecordID() }

func (e *Engine[K]) attachLog(w *wal.Log) { e.wal = w }

func (e *Engine[K]) setRecovering(on bool) { e.recovering = on }

// recoverChunk bounds how many replayed records wait for the policy's
// OnIngest: recovery hands them over in chunks so a flush cycle can run
// between chunks.
const recoverChunk = 4096

// wants reports whether the engine takes a replayed record: whether it
// indexes it (a record it already holds it indexes too). The stream
// takes one claim per taker.
func (e *Engine[K]) wants(fr disk.FlushRecord) bool {
	e.replayed.keys = e.cfg.Attr.KeysOf(fr.MB)
	return len(e.replayed.keys) > 0
}

// held returns the wrapper memory holds for the record at fr, or nil. A
// resident record is posted under at least one of its keys, at its
// (score, ID).
func (e *Engine[K]) held(fr disk.FlushRecord, keys []K) *store.Record {
	for _, key := range keys {
		if en := e.idx.Entry(key); en != nil {
			if rec := en.Lookup(fr.Score, fr.MB.ID); rec != nil {
				return rec
			}
		}
	}
	return nil
}

// take rebuilds one replayed record in memory, under one claim on the
// files delivering and framing it. Replayed records keep their original
// IDs, timestamps and scores. A record delivered twice (a reference frame
// the crash caught before its source drained) keeps one wrapper, with the
// newer delivery's claims. Memory stays bounded throughout: records reach
// the policy in chunks, and whenever memory reaches the flush watermark a
// cycle runs inline, under the gate, before the next frame is read — its
// releases may unlink files already replayed.
func (e *Engine[K]) take(fr disk.FlushRecord) {
	rc := &e.replayed
	if held := e.held(fr, rc.keys); held != nil {
		e.wal.Release(held.ReplaySeq, held.LogSeq, 1)
		held.LogSeq, held.LogOrd, held.ReplaySeq = fr.LogSeq, fr.LogOrd, fr.ReplaySeq
		return
	}
	rec := e.newRecord(fr.MB, fr.Score)
	e.admit(rec, fr, rc.keys)
	rc.recs = append(rc.recs, rec)
	rc.recKeys = append(rc.recKeys, rc.keys)
	if due := e.flushDue(); due || len(rc.recs) == recoverChunk {
		e.handOver()
		if due {
			e.recoveryFlush()
		}
	}
}

// handOver reports the replayed records waiting to the policy. Each
// chunk is one ingestion batch as far as the policy is concerned. Replay
// is in file order, not arrival order: a referenced record comes back
// where its reference frame stands, after records that arrived later
// (wal.Log.Replay).
func (e *Engine[K]) handOver() {
	rc := &e.replayed
	e.pol.OnIngest(rc.recs, rc.recKeys)
	rc.total += len(rc.recs)
	rc.recs, rc.recKeys = rc.recs[:0], rc.recKeys[:0]
}

// endReplay hands the last chunk over once the log is replayed, then
// runs the one compaction pass the replay's flush cycles owe.
func (e *Engine[K]) endReplay(maxID uint64) {
	e.handOver()
	slog.Info("engine: wal recovery complete",
		"attr", e.cfg.Attr.Name, "records", e.replayed.total, "max_id", maxID, "mem_used", e.mem.Used())
	e.replayed = replayChunk[K]{}
	e.compact()
}

// recoveryFlush runs one flush cycle inline during replay. A failing
// tier puts the engine in degraded mode as it would at run time; replay
// carries on so no logged record is dropped. Unlike every other cycle it
// is not followed by a compaction pass: endReplay runs one for them all,
// which merges each overflowing level once instead of once per cycle.
func (e *Engine[K]) recoveryFlush() {
	if _, err := e.gatedCycle(blackbox.TriggerRecovery); err != nil {
		e.lastError.Store(err)
		slog.Error("engine: recovery flush failed", "policy", e.pol.Name(), "error", err)
	}
}

// Ingest digests one microblog: the engine takes ownership of mb,
// assigns its ID (and timestamp, when zero), stores and indexes it, and
// triggers a flush when the memory budget is full. It returns the
// assigned ID. Internally it is a batch of one.
func (e *Engine[K]) Ingest(mb *types.Microblog) (types.ID, error) {
	ids, err := e.IngestBatch([]*types.Microblog{mb})
	if err != nil {
		return 0, err
	}
	if ids[0] == 0 {
		return 0, ErrNoKeys
	}
	return ids[0], nil
}

// IngestBatch digests a batch of microblogs in arrival order, taking
// ownership of every record, through the engine's stream: IDs (and
// timestamps, when zero) are assigned per record, and the whole batch is
// group-committed to the write-ahead log under one lock acquisition and
// one buffered write before any record becomes visible, so durability
// costs are amortized across the batch — the group commit that lets
// ingestion scale with the stream rate. Every engine of the stream that
// indexes a record takes it, under the one ID. Records no engine of the
// stream indexes are skipped, reported by a zero ID in the returned slice
// (which is aligned with mbs); alone in its stream, that is a record
// carrying no keys for this attribute. A flush is triggered at most once
// per batch and engine.
func (e *Engine[K]) IngestBatch(mbs []*types.Microblog) ([]types.ID, error) {
	return e.stream.IngestBatch(mbs)
}

// writable reports why the engine refuses records now, or nil.
func (e *Engine[K]) writable() error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.degraded.Load() {
		reason, _ := e.degradedReason.Load().(string)
		return fmt.Errorf("%w: %s", ErrDegraded, reason)
	}
	return nil
}

// stamp gives mb its timestamp, when zero, and returns its score: the
// stream asks the log's owner, once per record.
func (e *Engine[K]) stamp(mb *types.Microblog) float64 {
	if mb.Timestamp == 0 {
		mb.Timestamp = e.clk.Now()
	}
	return e.cfg.Ranker.Score(mb)
}

// begin opens the engine's share of one ingest batch, from the arena
// under the pooled policy.
func (e *Engine[K]) begin() share {
	if e.scratch != nil {
		sc := e.scratch.Get().(*ingestScratch[K])
		sc.e = e
		return sc
	}
	return &ingestScratch[K]{e: e}
}

// offer stages mb as frame k when the engine indexes it.
func (sc *ingestScratch[K]) offer(k int, mb *types.Microblog) bool {
	keys := sc.e.cfg.Attr.KeysOf(mb)
	if len(keys) == 0 {
		return false
	}
	sc.at = append(sc.at, k)
	sc.recKeys = append(sc.recKeys, keys)
	return true
}

// admit makes the staged records memory-resident, each holding the
// claims the stream took for it on frames[k], reports them to the policy
// and triggers a flush when the budget is exhausted. batch is the size
// of the caller's batch.
func (sc *ingestScratch[K]) admit(frames []disk.FlushRecord, batch int, start time.Time) {
	defer sc.discard()
	e := sc.e
	if len(sc.at) == 0 {
		return
	}
	for i, k := range sc.at {
		rec := e.newRecord(frames[k].MB, frames[k].Score)
		e.admit(rec, frames[k], sc.recKeys[i])
		sc.recs = append(sc.recs, rec)
	}
	e.pol.OnIngest(sc.recs, sc.recKeys)
	e.reg.Ingested.Add(int64(len(sc.recs)))
	e.reg.IngestBatches.Add(1)
	e.bbox.Record(blackbox.SubIngest, blackbox.EvIngestBatch,
		int64(len(sc.recs)), int64(batch-len(sc.recs)), time.Since(start).Nanoseconds())
	e.maybeFlush(blackbox.TriggerBudget)
}

// discard ends the share: its working slices hold pointers, so they are
// zeroed before the arena takes them back, and never pin records or keys
// across batches.
func (sc *ingestScratch[K]) discard() {
	clear(sc.recs)
	clear(sc.recKeys)
	sc.at, sc.recs, sc.recKeys = sc.at[:0], sc.recs[:0], sc.recKeys[:0]
	if e := sc.e; e.scratch != nil {
		sc.e = nil
		e.scratch.Put(sc)
	}
}

// newRecord builds a record for m, reusing a recycled wrapper whose
// quarantine has expired when the pooled policy is active.
func (e *Engine[K]) newRecord(m *types.Microblog, score float64) *store.Record {
	if rec, ok := e.recycler.Get(); ok {
		store.ResetRecord(rec, m, score)
		return rec
	}
	return store.NewRecord(m, score)
}

// admit makes rec memory-resident: counted, charged to the budget and
// linked under every key, holding the log claims at names — on the file
// framing it (LogSeq, at ordinal LogOrd) and the one delivering it at
// replay (ReplaySeq), all 0 without a log. The references are
// charged in full before the first link, so a concurrent flush
// unlinking an early key can never see the count reach zero while later
// keys are still being linked. The caller
// reports the record to the policy (OnIngest) once its batch is in.
func (e *Engine[K]) admit(rec *store.Record, at disk.FlushRecord, keys []K) {
	rec.LogSeq, rec.LogOrd, rec.ReplaySeq = at.LogSeq, at.LogOrd, at.ReplaySeq
	rec.Ref(int32(len(keys)))
	e.mem.AddRecords(1, rec.Bytes())
	for _, key := range keys {
		e.idx.Link(key, rec)
	}
}

// AllocStats reports the allocator layer's traffic: the posting slab
// pool and the record recycler (all zero under AllocPolicy=heap).
func (e *Engine[K]) AllocStats() (alloc.SliceStats, alloc.RecyclerStats) {
	return e.idx.PoolStats(), e.recycler.Stats()
}

// maybeFlush triggers the policy when the budget is exhausted. In
// background mode at most one flush runs at a time and digestion
// continues concurrently, as the paper requires.
//
// Hysteresis: when a flush cannot free the full budget (the saturation
// regime of Figure 5(a)), memory stays at or above the budget and every
// ingest would otherwise re-trigger a flush — the costly
// every-few-seconds flushing the paper's Section II-C warns about. A
// new flush is therefore allowed only after memory grew by at least
// 0.5% of the budget since the previous one ended.
func (e *Engine[K]) maybeFlush(trigger blackbox.Trigger) {
	if !e.flushDue() {
		return
	}
	if !e.flushMu.TryLock() {
		return // a flush is already in flight
	}
	if e.closed.Load() {
		e.flushMu.Unlock()
		return // shutting down: the log may be sealed already
	}
	if e.cfg.SyncFlush {
		e.runFlushLocked(trigger)
		return
	}
	go pprof.Do(context.Background(), flusherLabels, func(context.Context) {
		e.runFlushLocked(trigger)
	})
}

// flusherLabels attributes a background flush cycle's CPU (eviction,
// segment encode, fsync, manifest commits) to its subsystem in profiles,
// and compactionLabels the merges of the pass after a cycle, on
// whichever goroutine ran it.
var (
	flusherLabels    = pprof.Labels("kflushing", "flusher")
	compactionLabels = pprof.Labels("kflushing", "compaction")
)

// flushDue reports whether memory has reached the flush watermark and
// grown past the hysteresis margin since the last cycle ended.
func (e *Engine[K]) flushDue() bool {
	used := e.mem.Used()
	wm := e.cfg.MemoryBudget
	return used >= wm && used >= e.lastFlushUsed.Load()+wm/200
}

// runFlushLocked executes one flush cycle and the compaction pass after
// it; the caller must hold flushMu, which is released when the cycle
// ends.
func (e *Engine[K]) runFlushLocked(trigger blackbox.Trigger) {
	defer func() {
		if r := recover(); r != nil {
			// Last chance to preserve the evidence: the rings hold the
			// events leading up to whatever went wrong, in the cycle or
			// in its compaction pass.
			e.dumpBlackbox("panic")
			panic(r)
		}
	}()
	_, err := func() (int64, error) {
		defer e.flushMu.Unlock()
		return e.flushCycle(trigger)
	}()
	if err != nil {
		e.lastError.Store(err)
		slog.Error("engine: background flush failed",
			"policy", e.pol.Name(), "trigger", trigger, "error", err)
	}
	e.compact()
}

// gatedCycle takes the flush gate and runs one flush cycle under it,
// unless the engine closed while it waited.
func (e *Engine[K]) gatedCycle(trigger blackbox.Trigger) (int64, error) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	return e.flushCycle(trigger)
}

// compact is the compaction pass every flush cycle — budget or
// FlushNow — is followed by, on the goroutine that ran the cycle, once
// the flush gate is free: it runs beside the next cycle. Replay runs one
// after its last cycle (endReplay). It calls
// disk.Tier.CompactNow, which waits for a pass in progress and then
// merges whatever overflow is left, so no install is left without a pass
// that starts after it. A failed pass is counted by the tier and logged
// here; it never fails the cycle before it, nor degrades the engine: that
// cycle's segment is live, and the next cycle's pass tries again.
func (e *Engine[K]) compact() {
	pprof.Do(context.Background(), compactionLabels, func(ctx context.Context) {
		rtrace.WithRegion(ctx, "compaction-pass", func() {
			if err := e.tier.CompactNow(); err != nil {
				slog.Error("engine: compaction failed", "attr", e.cfg.Attr.Name, "error", err)
			}
		})
	})
}

// flushCycle runs one flush cycle: the policy evicts at the configured
// target (prepare), the evicted batch is completed (build, install,
// release), and the cycle is counted. Every event between flush_begin
// and flush_end — the policy's phases and the stages — carries the
// cycle's ID. Callers must hold flushMu: whichever goroutine runs the
// cycle, its batch is installed or restored before the gate is free.
func (e *Engine[K]) flushCycle(trigger blackbox.Trigger) (int64, error) {
	start := time.Now()
	id := blackbox.NextSeq()
	e.cycle = id
	// A runtime/trace task per cycle: `go tool trace` groups the cycle's
	// regions (and any GC or scheduler interference) under one span.
	ctx, task := rtrace.NewTask(context.Background(), "flush-cycle")
	defer task.End()
	target := int64(e.cfg.FlushFraction * float64(e.cfg.MemoryBudget))
	e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushBegin, id, 0, int64(trigger), target, e.mem.Used())
	var batch flushBatch
	err := failpoint.Eval(failpoint.FlushBegin)
	if err == nil {
		rtrace.WithRegion(ctx, "flush-prepare", func() {
			batch.Batch, err = e.pol.Flush(target)
		})
	}
	freed := batch.Freed
	prepare := time.Since(start)
	e.reg.ObserveStage(metrics.StagePrepare, prepare)
	e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushPrepare, id, 0, target, freed, prepare.Nanoseconds())
	// The policy only evicted: its batch is out of memory and not yet on
	// disk. It walks the remaining stages here, under the gate — also
	// when the policy failed after evicting: what it evicted is persisted
	// before the error is reported.
	durable := false
	if len(batch.Recs) > 0 || len(batch.Dead) > 0 {
		batch.cycle = id
		e.reg.PipelineDepth.Store(1)
		if e.wal != nil {
			// The log files the batch's directory will name, and those that
			// deliver its records at replay, stay until it is installed: a
			// record evicted from one key only may be referenced away from
			// its replay file meanwhile, and a restored one claims that
			// file again.
			for _, fr := range batch.Recs {
				batch.pins.add(fr.ReplaySeq, fr.LogSeq)
			}
			for _, c := range batch.pins {
				e.wal.Claim(c.replay, c.log, c.n)
			}
		}
		var cerr error
		rtrace.WithRegion(ctx, "flush-complete", func() {
			durable, cerr = e.completeBatch(batch)
		})
		e.reg.PipelineDepth.Store(0)
		if cerr != nil {
			err = cerr
		}
	}
	d := time.Since(start)
	e.reg.Flushes.Add(1)
	e.reg.FlushedBytes.Add(freed)
	e.reg.FlushLatency.Observe(d)
	used := e.mem.Used()
	e.lastFlushUsed.Store(used)
	e.bbox.RecordNote(blackbox.SubFlush, blackbox.EvFlushEnd, id, flag(durable),
		freed, used, d.Nanoseconds(), errText(err))
	e.flushOutcome(err, durable, id)
	slog.Debug("engine: flush cycle",
		"policy", e.pol.Name(), "trigger", trigger, "id", id,
		"target", target, "freed", freed, "duration", d)
	if err == nil {
		e.reclaimWAL()
	}
	return freed, err
}

// reclaimWAL keeps the write-ahead log's replay proportional to memory.
// Eviction by usefulness never drains an old log file — a few long-lived
// records pin it — so once the log's replay has outgrown the memory
// budgets it feeds, the sealed file with the fewest survivors is the
// stream's reclaim target, and every engine over the log has its
// survivors of it listed (Stream.reclaim, listSurvivors). The file drains
// once no memory-resident record and no batch in flight claims it. One
// file per flush cycle: cycles come several to a rotation.
func (e *Engine[K]) reclaimWAL() {
	if e.wal == nil || e.recovering {
		return
	}
	e.stream.reclaim(e.slot)
}

// listSurvivors has the engine's survivors of sealed file seq — the
// memory-resident records whose replay goes through it — listed by a
// reference frame in the active file (wal.Reference), which takes their
// replay over. No record byte moves: the survivors stay framed where
// they are. The caller holds the engine's flush gate, so nothing is
// evicted or restored meanwhile and the survivor set cannot change;
// ingestion — which only ever claims the active file — carries on. It
// reports whether the survivors are listed.
func (e *Engine[K]) listSurvivors(seq uint32) bool {
	recs := e.survivors(seq)
	frames := make([]disk.FlushRecord, len(recs))
	for i, rec := range recs {
		frames[i] = disk.FlushRecord{MB: rec.MB, Score: rec.Score, LogSeq: rec.LogSeq, LogOrd: rec.LogOrd}
	}
	to, err := e.wal.Reference(seq, frames)
	if err != nil {
		// The source keeps its covers; the next cycle tries again.
		e.lastError.Store(err)
		slog.Error("engine: wal reclaim failed", "file_seq", seq, "survivors", len(recs), "error", err)
		return false
	}
	for _, rec := range recs {
		rec.ReplaySeq = to
	}
	return true
}

// survivors returns the resident records whose replay goes through log
// file seq, in ID order. Memory holds exactly what the index posts, and
// a record posted under several keys is found once per key. The caller
// holds the flush gate: no posting of a resident record leaves the index
// meanwhile.
func (e *Engine[K]) survivors(seq uint32) []*store.Record {
	var recs []*store.Record
	e.idx.Range(func(en *index.Entry[K]) bool {
		posted, _, _ := en.Probe(-1)
		for _, rec := range posted {
			if rec.ReplaySeq == seq {
				recs = append(recs, rec)
			}
		}
		return true
	})
	slices.SortFunc(recs, func(a, b *store.Record) int { return cmp.Compare(a.MB.ID, b.MB.ID) })
	return slices.Compact(recs)
}

// tryListSurvivors is listSurvivors for another member's cycle end: it
// lists the engine's survivors only if its flush gate is free and it is
// not shutting down.
func (e *Engine[K]) tryListSurvivors(seq uint32) bool {
	if !e.flushMu.TryLock() {
		return false
	}
	defer e.flushMu.Unlock()
	return !e.closed.Load() && e.listSurvivors(seq)
}

// releaseClaims gives back the log claims of records that left memory
// for good: their payload is in an installed segment, or a restored
// wrapper claimed it anew.
func (e *Engine[K]) releaseClaims(dead []*store.Record) {
	var t seqTally
	for _, rec := range dead {
		t.add(rec.ReplaySeq, rec.LogSeq)
	}
	e.releaseTally(t)
}

// releaseTally gives back the claims a tally counts.
func (e *Engine[K]) releaseTally(t seqTally) {
	for _, c := range t {
		e.wal.Release(c.replay, c.log, c.n)
	}
}

// seqTally counts records per pair of log files — the one delivering
// them at replay and the one framing them; a batch touches a handful of
// pairs at most, so a linear scan beats a map.
type seqTally []seqCount

type seqCount struct {
	replay, log uint32
	n           int
}

func (t *seqTally) add(replay, log uint32) {
	for i := range *t {
		if (*t)[i].replay == replay && (*t)[i].log == log {
			(*t)[i].n++
			return
		}
	}
	*t = append(*t, seqCount{replay, log, 1})
}

// FlushNow synchronously runs one flush cycle regardless of memory
// pressure, and the compaction pass after it, returning the bytes freed.
// It blocks deterministically on the flush gate — no polling — until any
// in-flight background cycle completes, then runs its own. Intended for
// tests, experiments, and administrative draining.
func (e *Engine[K]) FlushNow() (int64, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	freed, err := e.gatedCycle(blackbox.TriggerManual)
	e.compact()
	return freed, err
}

// Search evaluates one basic top-k search query (Section II-B). The
// answer is ranked best-first; Result.MemoryHit reports whether memory
// alone supplied it — the paper's hit-ratio event — which it does only
// when memory provably holds the exact answer (see exactness below).
//
// When req.Trace is non-nil the execution is recorded into it: the
// memory probe outcome per key, per-segment disk activity on a miss,
// and stage timings. Every trace-related branch is guarded by a nil
// check, so the disabled path adds no allocations. A search that takes
// SlowQueryNanos or longer leaves a query_slow event in the flight
// recorder, built from the timings the histograms are fed anyway.
func (e *Engine[K]) Search(req query.Request[K]) (query.Result, error) {
	if e.closed.Load() {
		return query.Result{}, ErrClosed
	}
	if len(req.Keys) == 0 {
		return query.Result{}, fmt.Errorf("engine: query has no keys")
	}
	k := req.K
	if k <= 0 {
		k = e.idx.K()
	}
	op := req.Op
	if len(req.Keys) == 1 {
		op = query.OpSingle
	}
	tr := req.Trace
	if tr != nil {
		tr.Op = op.String()
		tr.K = k
		tr.Keys = make([]string, len(req.Keys))
		for i, key := range req.Keys {
			tr.Keys[i] = e.cfg.Attr.Encode(key)
		}
	}
	start := time.Now()
	now := e.clk.Now()

	// Pin the recycler epoch: record pointers copied out of entries
	// below are read (and handed to OnAccess) without locks, so no
	// wrapper may be recycled until this search ends. A no-op under
	// AllocPolicy=heap.
	ep := e.recycler.Pin()
	defer e.recycler.Unpin(ep)

	// Gather per-key candidates from memory, each with the key's posting
	// count and ceiling read in the same critical section, touching each
	// entry's last-queried timestamp (Phase 3 bookkeeping). A key is
	// complete when no posting of it ever left memory, an absent key the
	// departure record never saw included, and exact to depth k when it
	// is complete or its k-th posting ranks strictly above its ceiling:
	// whatever left memory ranks below the k in hand.
	depth := k
	if op == query.OpAnd {
		// Intersection needs every posting: under the MK extension
		// entries may hold beyond-top-k postings kept exactly for AND
		// queries.
		depth = -1
	}
	var recsByID map[types.ID]*store.Record
	if e.obs != nil {
		recsByID = make(map[types.ID]*store.Record)
	}
	lists := make([][]query.Item, len(req.Keys))
	everyKeyFilled, everyKeyExact := true, true
	var ceilings index.Bound     // the highest ceiling of the queried keys
	complete, completeN := -1, 0 // the complete key with the fewest postings
	for ki, key := range req.Keys {
		var recs []*store.Record
		var n int
		var ceil index.Bound
		en := e.idx.Entry(key)
		if en == nil {
			var src index.Source
			ceil, src = e.idx.DepartedFrom(key)
			e.reg.DepartedReads[src].Add(1)
		} else {
			en.Touch(now)
			recs, n, ceil = en.Probe(depth)
		}
		keyComplete := ceil.Complete()
		keyFilled := n >= k
		everyKeyFilled = everyKeyFilled && keyFilled
		everyKeyExact = everyKeyExact && (keyComplete || keyFilled && ceil.Below(recs[k-1].Score, recs[k-1].MB.ID))
		if ki == 0 || ceilings.Below(ceil.Score, ceil.ID) {
			ceilings = ceil
		}
		if keyComplete && (complete < 0 || n < completeN) {
			complete, completeN = ki, n
		}
		items := make([]query.Item, len(recs))
		for i, r := range recs {
			items[i] = query.Item{MB: r.MB, Score: r.Score}
			if recsByID != nil {
				recsByID[r.MB.ID] = r
			}
		}
		lists[ki] = items
		if tr != nil {
			tr.AddEntry(trace.EntryProbe{
				Key: tr.Keys[ki], Found: en != nil, Postings: n, KFilled: keyFilled, Complete: keyComplete,
			})
		}
	}
	gatherEnd := time.Now()
	indexD := gatherEnd.Sub(start)
	e.reg.ObserveQueryStage(metrics.QStageIndex, indexD)

	// An OR query — a single key is its one-key case — hits when every
	// key is complete, or when the merged k-th ranks strictly above the
	// highest ceiling of its keys: whatever any key lost ranks below the
	// k in hand. The hit is "filled" — Section IV-D's event — when every
	// key holds k postings and is exact, and "complete" otherwise. An AND
	// query hits filled when the in-memory intersection reaches k above
	// every key's ceiling, and complete when some key is complete: that
	// key's postings are every record carrying it, so the records among
	// them that carry every queried key are the whole answer, whatever
	// the other keys lost.
	var mem []query.Item
	outcome := metrics.Miss
	switch op {
	case query.OpAnd:
		mem = query.IntersectTopK(lists, k)
		switch {
		case len(mem) >= k && ceilings.Below(mem[k-1].Score, mem[k-1].MB.ID):
			outcome = metrics.HitFilled
		case complete >= 0:
			mem = e.carryingAll(lists[complete], req.Keys, k)
			outcome = metrics.HitComplete
		}
	default:
		mem = lists[0]
		if op == query.OpOr {
			mem = query.MergeTopK(lists, k)
		}
		switch {
		case everyKeyExact && everyKeyFilled:
			outcome = metrics.HitFilled
		case ceilings.Complete() || len(mem) >= k && ceilings.Below(mem[k-1].Score, mem[k-1].MB.ID):
			outcome = metrics.HitComplete
		}
	}
	hit := outcome != metrics.Miss
	heapD := time.Since(gatherEnd)
	e.reg.ObserveQueryStage(metrics.QStageHeap, heapD)

	if tr != nil {
		tr.MemoryHit = hit
		tr.HitReason = outcome.Reason()
		tr.MemoryItems = len(mem)
		tr.Stage("memory", start)
	}

	res := query.Result{Items: mem, MemoryHit: hit}
	var diskD time.Duration
	if !res.MemoryHit {
		res.DiskChecked = true
		diskStart := time.Now()
		diskItems, err := e.diskSearch(req.Keys, op, k, tr)
		if err != nil {
			return query.Result{}, err
		}
		if tr != nil {
			tr.Stage("disk", diskStart)
		}
		res.Items = query.MergeTopK([][]query.Item{mem, diskItems}, k)
		diskD = time.Since(diskStart)
		e.reg.ObserveQueryStage(metrics.QStageDisk, diskD)
	}

	// Tell an access-ordered policy (LRU relinks them) which memory
	// records the answer used.
	if e.obs != nil {
		touched := make([]*store.Record, 0, len(res.Items))
		for _, it := range res.Items {
			if r, ok := recsByID[it.MB.ID]; ok {
				touched = append(touched, r)
			}
		}
		if len(touched) > 0 {
			e.obs.OnAccess(touched)
		}
	}

	elapsed := time.Since(start)
	e.reg.RecordQuery(op.String(), outcome, elapsed)
	if tr != nil {
		tr.Items = len(res.Items)
		tr.Stage("total", start)
	}
	if thr := e.cfg.SlowQueryNanos; thr > 0 && elapsed.Nanoseconds() >= thr {
		keys := make([]string, len(req.Keys))
		for i, key := range req.Keys {
			keys[i] = e.cfg.Attr.Encode(key)
		}
		e.bbox.RecordSlowQuery(op, k, len(keys), hit, indexD.Nanoseconds(), heapD.Nanoseconds(),
			diskD.Nanoseconds(), elapsed.Nanoseconds(), strings.Join(keys, " "))
	}
	return res, nil
}

// carryingAll answers an AND query from one complete key's postings,
// best first: the first k records whose own keys include every queried
// key. It filters items in place.
func (e *Engine[K]) carryingAll(items []query.Item, keys []K, k int) []query.Item {
	out := items[:0]
	for _, it := range items {
		if len(out) == k {
			break
		}
		own := e.cfg.Attr.KeysOf(it.MB)
		all := true
		for _, key := range keys {
			all = all && slices.Contains(own, key)
		}
		if all {
			out = append(out, it)
		}
	}
	return out
}

// diskSearch is the memory-miss fallback; a nil trace records nothing.
func (e *Engine[K]) diskSearch(keys []K, op query.Op, k int, tr *trace.Trace) ([]query.Item, error) {
	e.reg.DiskSearches.Add(1)
	return e.tier.SearchTraced(keys, op, k, tr.BeginDisk())
}

// SetK changes the default top-k threshold at run time (Section IV-C).
// The new value applies to subsequent queries immediately and to
// flushing decisions from the next flush cycle.
func (e *Engine[K]) SetK(k int) {
	if k > 0 {
		e.idx.SetK(k)
	}
}

// K returns the current default top-k threshold.
func (e *Engine[K]) K() int { return e.idx.K() }

// Index exposes the underlying index for experiments and tests.
func (e *Engine[K]) Index() *index.Index[K] { return e.idx }

// Store exposes the raw data store — the records memory holds — for
// experiments and tests.
func (e *Engine[K]) Store() Resident[K] { return e.store }

// Resident is an engine's raw data store as a view: the records its
// index posts, counted by its memory tracker. The engine keeps no
// ID→record map; Get searches the index.
type Resident[K comparable] struct {
	mem *memsize.Tracker
	idx *index.Index[K]
}

// Len returns the number of resident records.
func (r Resident[K]) Len() int64 { return r.mem.Records() }

// Get returns the resident record with the given ID, or nil. It walks
// the whole index: a tool for tests and inspection, not a hot path.
func (r Resident[K]) Get(id types.ID) *store.Record {
	var found *store.Record
	r.idx.Range(func(en *index.Entry[K]) bool {
		posted, _, _ := en.Probe(-1)
		for _, rec := range posted {
			if rec.MB.ID == id {
				found = rec
				return false
			}
		}
		return true
	})
	return found
}

// Mem exposes the memory tracker for experiments and tests.
func (e *Engine[K]) Mem() *memsize.Tracker { return &e.mem }

// Metrics exposes the counter registry.
func (e *Engine[K]) Metrics() *metrics.Registry { return &e.reg }

// Blackbox exposes the flight recorder. Its Events snapshot merges
// every subsystem ring into one sequence-ordered timeline, which
// blackbox.FlushCycles and blackbox.SlowQueries turn into the flush log
// and the slow-query log.
func (e *Engine[K]) Blackbox() *blackbox.Recorder { return e.bbox }

// recordPhase is the policies' phase hook (policy.Resources.OnPhase):
// the per-phase series (kFlushing's three phases; the baselines' phases
// leave them at zero), then one flush_phase event under the running
// cycle's ID, followed by one flush_phase_worker per worker the phase
// fanned out over.
func (e *Engine[K]) recordPhase(phase int, victims, complete, freed, nanos int64, workerNanos []int64) {
	e.reg.ObservePhase(phase, time.Duration(nanos), freed, complete)
	e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushPhase, e.cycle, int64(phase), victims, freed, nanos)
	for w, n := range workerNanos {
		e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushPhaseWorker, e.cycle, 0, int64(phase), int64(w), n)
	}
}

// flag and errText render a bool and an error as an event's argument
// word and note.
func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dumpBlackbox snapshots the flight recorder next to the disk tier. It
// is called on degraded-mode entry and from panic recovery, so failures
// are logged, never propagated.
func (e *Engine[K]) dumpBlackbox(reason string) {
	path, err := e.bbox.Dump(e.cfg.DiskDir, reason)
	switch {
	case err != nil:
		slog.Error("engine: flight recorder dump failed", "reason", reason, "error", err)
	case path != "":
		slog.Warn("engine: flight recorder dumped", "reason", reason, "dump", path)
	}
}

// CheckReady verifies the engine can currently accept writes: the disk
// tier directory must accept new files and the write-ahead log (when
// durability is on) must be appendable. It performs real probe I/O, so
// call it from readiness endpoints, not hot paths.
func (e *Engine[K]) CheckReady() error {
	if e.closed.Load() {
		return ErrClosed
	}
	probeErr := e.tier.CheckWritable()
	if probeErr == nil && e.wal != nil && e.slot == 0 {
		probeErr = e.wal.CheckAppendable()
	}
	if ok, reason := e.Degraded(); ok {
		if probeErr != nil {
			return fmt.Errorf("%w: %s (probe: %v)", ErrDegraded, reason, probeErr)
		}
		// The write probes pass again: leave degraded mode so ingestion
		// resumes. If a cycle is in flight it will decide the state
		// itself.
		if e.flushMu.TryLock() {
			e.exitDegraded("readiness probe")
			e.flushMu.Unlock()
			return nil
		}
		return fmt.Errorf("%w: %s", ErrDegraded, reason)
	}
	return probeErr
}

// Policy exposes the attached flushing policy.
func (e *Engine[K]) Policy() policy.Policy[K] { return e.pol }

// DiskHealth is a cheap point-in-time view of the disk tier's leveled
// layout and the flush in progress: enough for a readiness endpoint to
// show compaction falling behind (persistent backlog) or a flush stuck
// on the disk without paying for a full Stats census.
type DiskHealth struct {
	Layout            string            `json:"layout"`
	Levels            []disk.LevelStats `json:"levels"`
	CompactionBacklog int               `json:"compaction_backlog"`
	// PipelineDepth counts batches evicted and not yet installed or
	// restored: 1 while a flush cycle completes its batch, else 0.
	PipelineDepth int `json:"pipeline_depth"`
}

// DiskHealth summarizes the disk tier's levels and the batch in flight.
// Unlike Stats it takes no index census, so it is safe on probe paths.
func (e *Engine[K]) DiskHealth() DiskHealth {
	return DiskHealth{
		Layout:            disk.LayoutLeveled.String(),
		Levels:            e.tier.Levels(),
		CompactionBacklog: e.tier.CompactionBacklog(),
		PipelineDepth:     int(e.reg.PipelineDepth.Load()),
	}
}

// CompactNow runs compaction passes until no disk level exceeds its
// fanout. Searches stay answerable throughout; answers are unchanged.
func (e *Engine[K]) CompactNow() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.tier.CompactNow()
}

// CompactAll merges every disk segment into a single one. Intended for
// maintenance windows and tests.
func (e *Engine[K]) CompactAll() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.tier.CompactAll()
}

// Err returns the most recent background flush error, if any.
func (e *Engine[K]) Err() error {
	if v := e.lastError.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Stats is a point-in-time summary of the whole engine.
type Stats struct {
	Policy         string
	K              int
	MemoryBudget   int64
	MemoryUsed     int64
	DataBytes      int64
	IndexBytes     int64
	PolicyOverhead int64 // the policy's bookkeeping plus the index's departure record
	StoreRecords   int64
	Census         index.Census
	Metrics        metrics.Snapshot
	Disk           disk.Stats
	// WAL is the write-ahead log's footprint and reclaim counters (zero
	// without durability). The log is the stream's: WALOwner marks the
	// engine that reports it, the first of its stream, and the other
	// engines of the stream report a zero WAL.
	WAL      wal.Stats
	WALOwner bool
	// Degraded reports read-only mode (tier writes failing); the reason
	// is the error that entered it.
	Degraded       bool
	DegradedReason string

	// DepartedGhostLoad is the fraction of the departure record's ghost
	// slots holding a departed key's own ceiling.
	DepartedGhostLoad float64
}

// Stats gathers a snapshot. Taking a census scans the index; avoid
// calling it on latency-critical paths.
func (e *Engine[K]) Stats() Stats {
	degraded, reason := e.Degraded()
	var walStats wal.Stats
	if e.wal != nil && e.slot == 0 {
		walStats = e.wal.Stats()
	}
	return Stats{
		WAL:            walStats,
		WALOwner:       e.slot == 0,
		Degraded:       degraded,
		DegradedReason: reason,
		Policy:         e.pol.Name(),
		K:              e.idx.K(),
		MemoryBudget:   e.cfg.MemoryBudget,
		MemoryUsed:     e.mem.Used(),
		DataBytes:      e.mem.Data(),
		IndexBytes:     e.mem.Index(),
		PolicyOverhead: e.pol.OverheadBytes() + e.idx.DepartedBytes(),
		StoreRecords:   e.store.Len(),
		Census:         e.idx.TakeCensus(),
		Metrics:        e.reg.Snap(),
		Disk:           e.tier.Stats(),

		DepartedGhostLoad: e.idx.DepartedGhostLoad(),
	}
}

// Close closes the engine's stream (Stream.Close): it drains in-flight
// flushing of every engine of the stream, seals
// the write-ahead log's active file (when durable) — the next open
// replays the log's undrained files — and releases every engine's disk
// tier.
func (e *Engine[K]) Close() error { return e.stream.Close() }

// quiesce is the first half of the engine's shutdown: closed is set, so
// no new cycle starts once the gate is observed free (maybeFlush and
// FlushNow look again under it), and any in-flight background cycle
// drains. Its batch reaches the tier (or memory) before the log closes,
// and the tier's last commit carries the drains its release causes.
func (e *Engine[K]) quiesce() {
	e.closed.Store(true)
	blackbox.UnregisterDumper(e.cfg.DiskDir)
	e.flushMu.Lock()
	e.flushMu.Unlock() //nolint:staticcheck // empty critical section = drain
}

// closeTier is the second half, once the log is closed: the disk tier
// goes, under the gate, so no straggling flush writes to it.
func (e *Engine[K]) closeTier() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.tier.Close()
}
