package engine

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/flushlog"
	"kflushing/internal/store"
)

// ErrDegraded reports the engine is in degraded read-only mode: a flush
// cycle failed to write the disk tier even after retries, so ingestion
// is rejected until a tier write or readiness probe succeeds. Searches
// keep answering from memory and the readable segments throughout.
var ErrDegraded = errors.New("engine: degraded read-only mode, tier writes failing")

// flushSink wraps the disk tier as the policies' flush sink, adding
// bounded retry with backoff for transient write failures and, on final
// failure, capturing the evicted batch so the flush cycle can roll the
// eviction back into memory — evicted records are never dropped unless
// their segment was durably renamed into place.
//
// With a pipeline attached and async allowed for the current cycle, the
// sink hands the batch to the background builder instead of writing
// inline: the prepare stage (eviction) stays under the flush gate while
// build and install run off it. When the queue is full the sink falls
// back to the synchronous path, so semantics degrade gracefully under
// sustained pressure.
type flushSink[K comparable] struct {
	tier  *disk.Tier[K]
	retry disk.RetryPolicy
	pipe  *flushPipeline[K] // nil = always synchronous
	// releaseDead hands durably-flushed dead records to the engine's
	// recycler; nil under the heap alloc policy (wrappers drop to GC).
	releaseDead func([]*store.Record)
	// claims gives back the dead records' write-ahead-log claims; nil
	// without a log.
	claims func([]*store.Record)

	mu         sync.Mutex
	failed     []disk.FlushRecord
	failedDead []*store.Record
	wrote      bool
	async      bool // current cycle may enqueue (set by beginCycle)
	// Per-cycle stage accounting for the synchronous path, read by
	// flushCycle after the policy returns: build/install nanos from the
	// tier, plus total wall time spent inside sink writes (so the cycle
	// can subtract it to get the pure prepare time).
	cycleBuild   int64
	cycleInstall int64
	cycleWrite   int64
}

// beginCycle resets the per-cycle stage accounting and records whether
// this cycle may enqueue to the pipeline. Callers hold flushMu.
func (s *flushSink[K]) beginCycle(async bool) {
	s.mu.Lock()
	s.async = async && s.pipe != nil
	s.cycleBuild, s.cycleInstall, s.cycleWrite = 0, 0, 0
	s.mu.Unlock()
}

// cycleStats returns the synchronous-path stage nanos accumulated since
// beginCycle.
func (s *flushSink[K]) cycleStats() (build, install, write int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycleBuild, s.cycleInstall, s.cycleWrite
}

func (s *flushSink[K]) Flush(recs []disk.FlushRecord) error {
	return s.FlushDead(recs, nil)
}

// FlushDead implements policy.DeadSink: the flush batch plus the cycle's
// dead records. The dead records are settled (release) only once the
// segment is durably installed — and every batch enqueued before it; a
// failed batch is stashed with its dead so the cycle can restore the
// former and then settle the latter.
func (s *flushSink[K]) FlushDead(recs []disk.FlushRecord, dead []*store.Record) error {
	if len(recs) == 0 {
		// Nothing to write: every dead record's payload rode an earlier
		// batch — which may still be queued or building.
		s.releaseOrdered(dead, true)
		return nil
	}
	if err := failpoint.Eval(failpoint.FlushAfterEvict); err != nil {
		s.stash(recs, dead)
		return err
	}
	s.mu.Lock()
	async := s.async
	s.mu.Unlock()
	if async && s.pipe.tryEnqueue(recs, dead) {
		// The batch is WAL-covered and queued; build/install/release run
		// on the pipeline worker (see completeAsync).
		return nil
	}
	wstart := time.Now()
	var fs disk.FlushStats
	err := s.retry.Do(func() error {
		var werr error
		fs, werr = s.tier.FlushStaged(recs)
		return werr
	})
	if err != nil {
		s.stash(recs, dead)
		s.mu.Lock()
		s.cycleWrite += time.Since(wstart).Nanoseconds()
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.wrote = true
	s.cycleBuild += fs.BuildNanos
	s.cycleInstall += fs.InstallNanos
	s.cycleWrite += time.Since(wstart).Nanoseconds()
	s.mu.Unlock()
	// The segment is durably renamed; a dead record whose payload rode
	// an earlier, still queued batch waits for that one too.
	s.releaseOrdered(dead, true)
	// A failure from here on is NOT stashed: the segment is durably
	// renamed, so restoring the records to memory would duplicate them.
	return failpoint.Eval(failpoint.FlushAfterWrite)
}

// release settles dead records nothing can bring back any more: their
// log claims come down — each payload is in an installed segment, or
// was restored to memory under a claim of its own — and, when the batch
// installed, the wrappers enter the recycler's quarantine. After a
// failure they are left to the garbage collector instead, which is
// always safe (a rolled-back eviction re-creates fresh wrappers, never
// resurrects these).
func (s *flushSink[K]) release(dead []*store.Record, installed bool) {
	if len(dead) == 0 {
		return
	}
	if s.claims != nil {
		s.claims(dead)
	}
	if installed && s.releaseDead != nil {
		s.releaseDead(dead)
	}
}

// releaseOrdered is release for dead records that did not ride the
// pipeline themselves (a dead-only cycle, the queue-full fallback, a
// failed synchronous batch): some of their payloads may sit in batches
// still queued or building, so they are settled only after every batch
// enqueued so far has completed.
func (s *flushSink[K]) releaseOrdered(dead []*store.Record, installed bool) {
	if len(dead) == 0 {
		return
	}
	if s.pipe == nil || !s.pipe.deferRelease(dead, installed) {
		s.release(dead, installed)
	}
}

// writeStaged is the pipeline worker's write path: the same retry and
// evidence bookkeeping as the synchronous path, but no stash — the
// worker rolls failures back itself. wrote reports whether the segment
// became durable (a post-write failpoint can fail the batch without
// un-writing it).
func (s *flushSink[K]) writeStaged(recs []disk.FlushRecord) (fs disk.FlushStats, wrote bool, err error) {
	err = s.retry.Do(func() error {
		var werr error
		fs, werr = s.tier.FlushStaged(recs)
		return werr
	})
	if err != nil {
		return fs, false, err
	}
	s.mu.Lock()
	s.wrote = true
	s.mu.Unlock()
	return fs, true, failpoint.Eval(failpoint.FlushAfterWrite)
}

func (s *flushSink[K]) stash(recs []disk.FlushRecord, dead []*store.Record) {
	s.mu.Lock()
	s.failed = append(s.failed, recs...)
	s.failedDead = append(s.failedDead, dead...)
	s.mu.Unlock()
}

// takeFailed returns and clears the batches that never reached the
// tier, with the dead records that rode them.
func (s *flushSink[K]) takeFailed() ([]disk.FlushRecord, []*store.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, dead := s.failed, s.failedDead
	s.failed, s.failedDead = nil, nil
	return recs, dead
}

// tookWrite reports (and resets) whether a tier write succeeded since
// the last call — the evidence a flush cycle needs before clearing
// degraded mode.
func (s *flushSink[K]) tookWrite() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.wrote
	s.wrote = false
	return w
}

// restoreEvicted rolls a failed eviction back into memory: records the
// sink could not persist are re-stored and re-indexed, and records that
// stayed memory-resident (partial flushes) lose their on-disk mark so a
// later flush writes them again. Every evicted record is still
// WAL-covered — its dead wrapper's claim is not released before this
// returns — and the wrapper re-created here takes a claim of its own on
// the same log file, so a crash loses nothing either way. Callers must
// hold flushMu.
func (e *Engine[K]) restoreEvicted(failed []disk.FlushRecord) {
	if len(failed) == 0 {
		return
	}
	var recs []*store.Record
	var recKeys [][]K
	var claimed seqTally
	unmarked := 0
	for _, fr := range failed {
		if rec := e.store.Get(fr.MB.ID); rec != nil {
			rec.UnmarkOnDisk()
			unmarked++
			continue
		}
		keys := e.cfg.KeysOf(fr.MB)
		if len(keys) == 0 {
			continue
		}
		rec := e.newRecord(fr.MB, fr.Score)
		rec.LogSeq = fr.LogSeq
		claimed.add(fr.LogSeq)
		rec.Ref(int32(len(keys))) // charged in full before the first link
		e.store.Put(rec)
		e.mem.AddData(rec.Bytes)
		for _, key := range keys {
			e.idx.Link(key, rec)
		}
		recs = append(recs, rec)
		recKeys = append(recKeys, keys)
	}
	if e.wal != nil {
		for _, c := range claimed {
			e.wal.Claim(c.seq, c.n)
		}
	}
	if len(recs) > 0 {
		e.pol.OnIngest(recs, recKeys)
	}
	slog.Warn("engine: flush failed, eviction rolled back into memory",
		"restored", len(recs), "unmarked", unmarked)
}

// enterDegraded flips the engine into degraded read-only mode and
// journals the transition. On the transition edge the flight recorder
// is dumped to the tier directory: the rings hold the WAL, flush and
// disk events that led here, which is exactly the evidence an incident
// review needs.
func (e *Engine[K]) enterDegraded(cause error) {
	e.degradedReason.Store(cause.Error())
	if e.degraded.CompareAndSwap(false, true) {
		slog.Error("engine: entering degraded read-only mode", "cause", cause)
		now := time.Now()
		e.journal.Begin(e.pol.Name(), flushlog.TriggerDegraded, 0, e.mem.Used(), now)
		e.journal.End(0, e.mem.Used(), 0, cause)
		e.bbox.Record(blackbox.SubState, blackbox.EvDegradedEnter, 0, 0, 0)
		e.dumpBlackbox("degraded")
	}
}

// exitDegraded leaves degraded mode after evidence the tier accepts
// writes again (a successful flush or readiness probe). Callers must
// hold flushMu so the journal writes stay serialized.
func (e *Engine[K]) exitDegraded(via string) {
	if e.degraded.CompareAndSwap(true, false) {
		slog.Info("engine: leaving degraded mode", "via", via)
		now := time.Now()
		e.journal.Begin(e.pol.Name(), flushlog.TriggerDegradedClear, 0, e.mem.Used(), now)
		e.journal.End(0, e.mem.Used(), 0, nil)
		e.bbox.Record(blackbox.SubState, blackbox.EvDegradedClear, 0, 0, 0)
	}
}

// Degraded reports whether the engine is in degraded read-only mode,
// with the error message that put it there.
func (e *Engine[K]) Degraded() (bool, string) {
	if !e.degraded.Load() {
		return false, ""
	}
	reason, _ := e.degradedReason.Load().(string)
	return true, reason
}
