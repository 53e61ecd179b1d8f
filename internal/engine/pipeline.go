package engine

import (
	"context"
	"errors"
	"log/slog"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/metrics"
	"kflushing/internal/store"
)

// pipelineLabels attributes the flush pipeline worker's CPU (segment
// encode, fsync, manifest commits) to its subsystem in profiles.
var pipelineLabels = pprof.Labels("kflushing", "flush-pipeline-worker")

// flushBatch is what one flush cycle evicted: the payloads to persist
// and the dead wrappers whose log claims come down — and which may be
// recycled — once the payloads are durable. It is out of memory and not
// yet on disk, but still fully covered by the write-ahead log: the dead
// wrappers hold their claims until the batch has settled. cycle is the
// ID of the flush cycle that evicted it: whoever completes the batch
// stamps the stages with it, so a cycle's events share one ID whether
// the flusher or the pipeline worker ran them. pins are the claims the
// cycle took on the log files the batch's directory will name, given
// back once it is installed (or the batch restored).
type flushBatch struct {
	recs  []disk.FlushRecord
	dead  []*store.Record
	cycle uint64
	pins  seqTally
}

// flushSink is the policies' sink: it parks the cycle's batch for
// flushCycle to pick up when the policy returns. Eviction is the
// policy's job and ends here; every step from here to durable (or back
// into memory) is a flushCompletion. Only the flushing goroutine touches
// it, under flushMu.
type flushSink struct{ parked flushBatch }

func (s *flushSink) Flush(recs []disk.FlushRecord, dead []*store.Record) {
	s.parked = flushBatch{recs: recs, dead: dead}
}

// take returns the parked batch (empty when the policy evicted nothing).
func (s *flushSink) take() flushBatch {
	b := s.parked
	s.parked = flushBatch{}
	return b
}

// flushPipeline is the queue between the two goroutines that can run a
// flushCompletion. A budget-triggered cycle enqueues its batch here and
// returns, releasing the flush gate, so ingestion and the NEXT cycle's
// prepare overlap this batch's segment build instead of serializing
// behind it; the single worker walks each queued batch through the same
// build → install → release stages the flusher runs inline for every
// other cycle.
//
// A crash with batches queued loses nothing — recovery replays them
// from the log — and a build or install FAILURE on the worker rolls the
// eviction back and degrades the engine exactly as it does inline, just
// later. Close drains the queue before it seals the log, so queued
// batches always reach the tier or memory, never the void.
//
// The queue is bounded; a cycle that finds it full completes its batch
// inline instead (counted in PipelineFallbacks), so eviction can never
// outrun the disk by more than pipelineDepth batches.
type flushPipeline[K comparable] struct {
	e      *Engine[K]
	ch     chan flushBatch
	wg     sync.WaitGroup
	closed atomic.Bool

	// mu orders releases behind the queue: batches complete in enqueue
	// order, so dead records deferred at a given enqueue count are
	// settled when the completion count reaches it.
	mu        sync.Mutex
	enqueued  uint64
	completed uint64
	deferred  []deferredRelease
}

// deferredRelease is a dead list waiting for the batches enqueued
// before it.
type deferredRelease struct {
	after     uint64 // settle once this many batches have completed
	dead      []*store.Record
	installed bool
}

// pipelineDepth bounds the queue: deep enough to absorb a flush burst,
// shallow enough that at most a few batches sit outside both memory and
// disk.
const pipelineDepth = 4

func newFlushPipeline[K comparable](e *Engine[K]) *flushPipeline[K] {
	p := &flushPipeline[K]{e: e, ch: make(chan flushBatch, pipelineDepth)}
	p.wg.Add(1)
	go p.worker()
	return p
}

// tryEnqueue hands an evicted batch to the worker without blocking.
// False means the caller completes it inline: there is no pipeline
// (SyncFlush), the batch has nothing to build — its dead settle in
// order on the flusher — or the queue is full or shut down.
func (p *flushPipeline[K]) tryEnqueue(b flushBatch) bool {
	if p == nil || len(b.recs) == 0 || p.closed.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- b:
		p.enqueued++
		p.e.reg.PipelineEnqueued.Add(1)
		depth := p.e.reg.PipelineDepth.Add(1)
		p.e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushEnqueue, b.cycle, 0,
			int64(len(b.recs)), depth, 0)
		return true
	default:
		p.e.reg.PipelineFallbacks.Add(1)
		p.e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushFallback, b.cycle, 0,
			int64(len(b.recs)), 0, 0)
		return false
	}
}

// worker is the single build/install goroutine: batches complete in
// enqueue order.
func (p *flushPipeline[K]) worker() {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			// Last chance to preserve the evidence: the rings hold the
			// events leading up to whatever went wrong.
			p.e.dumpBlackbox("panic")
			slog.Error("engine: flush pipeline worker panicked", "panic", r)
			panic(r)
		}
	}()
	pprof.Do(context.Background(), pipelineLabels, func(ctx context.Context) {
		for batch := range p.ch {
			rtrace.WithRegion(ctx, "pipeline-complete", func() {
				p.complete(batch)
			})
			p.settleDeferred()
			p.e.reg.PipelineDepth.Add(-1)
		}
	})
}

// complete runs one queued batch's completion on the worker.
func (p *flushPipeline[K]) complete(b flushBatch) {
	e := p.e
	c := e.persist(b, false)
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.conclude(c)
	e.flushOutcome(c.err, c.durable, b.cycle, "pipeline install")
	if c.err != nil {
		slog.Error("engine: pipelined flush failed",
			"records", len(b.recs), "restored", !c.installed, "error", c.err)
	}
}

// deferRelease parks dead until every batch enqueued so far has
// completed. False means nothing is in flight (or there is no pipeline)
// and the caller settles them itself. Only the flushing goroutine
// enqueues, so "so far" cannot move under the caller.
func (p *flushPipeline[K]) deferRelease(dead []*store.Record, installed bool) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.completed == p.enqueued {
		return false
	}
	p.deferred = append(p.deferred, deferredRelease{after: p.enqueued, dead: dead, installed: installed})
	return true
}

// settleDeferred counts one completed batch and settles the dead lists
// that were waiting for it.
func (p *flushPipeline[K]) settleDeferred() {
	p.mu.Lock()
	p.completed++
	n := 0
	for n < len(p.deferred) && p.deferred[n].after <= p.completed {
		n++
	}
	ready := p.deferred[:n:n]
	p.deferred = p.deferred[n:]
	p.mu.Unlock()
	for _, d := range ready {
		p.e.settle(d.dead, d.installed)
	}
}

// close stops intake and drains every queued batch through the worker.
// The caller must NOT hold flushMu: completions take it to conclude.
func (p *flushPipeline[K]) close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.ch)
	}
	p.wg.Wait()
}

// depth reports the number of batches queued or building.
func (p *flushPipeline[K]) depth() int {
	if p == nil {
		return 0
	}
	return int(p.e.reg.PipelineDepth.Load())
}

// flushCompletion is one evicted batch's walk from "out of memory" to
// "durable, claims released" or "restored": the build → install →
// release stages every flush goes through after prepare. Two functions
// run it, split where the flush gate becomes necessary: persist needs
// none, conclude must hold it. The flusher calls both under the gate it
// already holds, before its cycle's flush_end; the pipeline worker
// takes the gate between them, after it. Who runs a completion is the
// only thing that varies — the stage events say which — and gate wait
// is booked to no stage.
type flushCompletion struct {
	batch flushBatch
	// ordered: the dead additionally wait for every batch still queued,
	// because some of their payloads may ride those. Not so on the
	// worker, which is serial — every earlier batch has completed.
	ordered bool
	fs      disk.FlushStats
	// durable: this very completion installed a segment, the only
	// evidence that clears degraded mode. A batch with nothing to write
	// is installed without being durable.
	durable, installed bool
	err                error // fails the cycle
	release            time.Duration
}

// persist builds and installs the batch's segment and, once the payloads
// are safe on disk (or there were none), releases its dead: nothing
// re-enters memory, so no gate is needed.
func (e *Engine[K]) persist(b flushBatch, ordered bool) *flushCompletion {
	c := &flushCompletion{batch: b, ordered: ordered}
	if len(b.recs) > 0 {
		c.err = failpoint.Eval(failpoint.FlushAfterEvict)
		var seal time.Duration
		if c.err == nil && e.wal != nil {
			// The directory names only sealed, fsynced log files: seal the
			// one the newest victims may sit in. Booked to build.
			start := time.Now()
			c.err = e.wal.Seal()
			seal = time.Since(start)
		}
		var unsynced error
		if c.err == nil {
			c.err = e.cfg.DiskRetry.Do(func() error {
				var werr error
				c.fs, werr = e.tier.FlushStaged(b.recs)
				if errors.Is(werr, disk.ErrCommitUnsynced) {
					// Installed all the same: a retry would write the
					// batch twice.
					unsynced, werr = werr, nil
				}
				return werr
			})
			c.durable = c.err == nil
			if c.durable {
				c.fs.BuildNanos += seal.Nanoseconds()
			}
		}
		if c.durable {
			// A failure from here on fails the cycle but restores
			// nothing: the segment is live, and records brought back
			// beside it would be answered twice.
			c.err = failpoint.Eval(failpoint.FlushAfterWrite)
			if c.err == nil {
				c.err = unsynced
			}
		}
	}
	c.installed = c.durable || len(b.recs) == 0
	if c.installed {
		e.release(c)
	}
	return c
}

// conclude finishes a completion under the flush gate: a batch that
// never became durable comes back into memory, under fresh claims,
// before the wrappers it replaces give theirs back (and are left to the
// garbage collector); then the stages that ran are booked, once, to the
// histograms and — under the evicting cycle's ID, marked inline or
// worker — to the flight recorder. The release event of a failed
// completion carries the error: on the worker it is the only event of
// the cycle that can.
func (e *Engine[K]) conclude(c *flushCompletion) {
	if !c.installed {
		e.release(c)
	}
	id, worker := c.batch.cycle, flag(!c.ordered)
	recs, bytes := int64(len(c.batch.recs)), c.fs.Bytes
	if c.fs.BuildNanos > 0 {
		e.reg.ObserveStage(metrics.StageBuild, time.Duration(c.fs.BuildNanos))
		e.reg.ObserveStage(metrics.StageInstall, time.Duration(c.fs.InstallNanos))
		e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushBuild, id, worker, recs, bytes, c.fs.BuildNanos)
		e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushInstall, id, worker, recs, bytes, c.fs.InstallNanos)
	}
	e.reg.ObserveStage(metrics.StageRelease, c.release)
	e.bbox.RecordNote(blackbox.SubFlush, blackbox.EvFlushRelease, id, worker,
		recs, bytes, c.release.Nanoseconds(), errText(c.err))
}

// release is the release stage, timed where it runs: a batch that never
// became durable is restored first (the caller holds the flush gate),
// then the dead are settled — behind the queue when they are ordered and
// batches are still in flight.
func (e *Engine[K]) release(c *flushCompletion) {
	start := time.Now()
	if !c.installed {
		e.restoreEvicted(c.batch.recs)
	}
	if !c.ordered || !e.pipe.deferRelease(c.batch.dead, c.installed) {
		e.settle(c.batch.dead, c.installed)
	}
	if e.wal != nil {
		e.releaseTally(c.batch.pins)
	}
	c.release = time.Since(start)
}

// settle finishes dead records nothing can bring back any more: their
// log claims come down — each payload is in an installed segment, or
// was restored to memory under a claim of its own — and, when the batch
// installed, the wrappers enter the recycler's quarantine. After a
// failure they are left to the garbage collector instead, which is
// always safe (a rolled-back eviction re-creates fresh wrappers, never
// resurrects these).
func (e *Engine[K]) settle(dead []*store.Record, installed bool) {
	if len(dead) == 0 {
		return
	}
	if e.wal != nil {
		e.releaseClaims(dead)
	}
	if installed {
		e.recycler.Free(dead)
	}
}
