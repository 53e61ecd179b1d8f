package engine

import (
	"context"
	"log/slog"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/flushlog"
	"kflushing/internal/metrics"
	"kflushing/internal/store"
)

// pipelineLabels attributes the flush pipeline worker's CPU (segment
// encode, fsync, manifest commits) to its subsystem in profiles.
var pipelineLabels = pprof.Labels("kflushing", "flush-pipeline-worker")

// flushPipeline decouples a flush cycle's prepare stage (victim
// selection and eviction, which must run under the flush gate) from its
// build and install stages (segment encode, staged write, rename,
// manifest commit — all pure I/O): a budget-triggered cycle enqueues
// its evicted batch here and returns, releasing the gate, so ingestion
// and the NEXT cycle's prepare overlap the previous cycle's segment
// build instead of serializing behind it.
//
// Safety model: an enqueued batch is out of memory but not yet on disk.
// It is still fully covered by the write-ahead log — its dead records
// keep their claims on the log files holding them until the batch has
// installed (flushSink.release) — so a crash with batches queued loses
// nothing: recovery replays them back into memory. A build or
// install FAILURE rolls the eviction back via restoreEvicted and puts
// the engine in degraded read-only mode, exactly like a synchronous
// flush failure. Close drains the queue before the shutdown snapshot is
// cut, so queued batches always reach the tier or memory, never the
// void.
//
// The queue is bounded; when it is full the flush sink falls back to
// the synchronous write path (counted in PipelineFallbacks), so eviction
// can never outrun the disk by more than depth batches.
type flushPipeline[K comparable] struct {
	e      *Engine[K]
	ch     chan pipeBatch
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

// pipeBatch is one enqueued flush: the records to write plus the dead
// wrappers recycled once the write durably installs.
type pipeBatch struct {
	recs []disk.FlushRecord
	dead []*store.Record
}

// defaultPipelineDepth bounds the queue when Config.FlushPipelineDepth
// is zero: deep enough to absorb a flush burst, shallow enough that at
// most a few batches sit outside both memory and disk.
const defaultPipelineDepth = 4

func newFlushPipeline[K comparable](e *Engine[K], depth int) *flushPipeline[K] {
	p := &flushPipeline[K]{e: e, ch: make(chan pipeBatch, depth)}
	p.wg.Add(1)
	go p.worker()
	return p
}

// tryEnqueue hands an evicted batch to the background builder without
// blocking. False means the caller must write synchronously (queue
// full, or the pipeline shut down). The batch slice is copied — the
// policy may reuse its buffer the moment Flush returns; ownership of
// dead transfers to the pipeline.
func (p *flushPipeline[K]) tryEnqueue(recs []disk.FlushRecord, dead []*store.Record) bool {
	if p.closed.Load() {
		return false
	}
	batch := pipeBatch{recs: append([]disk.FlushRecord(nil), recs...), dead: dead}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- batch:
		p.enqueued++
		p.e.reg.PipelineEnqueued.Add(1)
		depth := p.e.reg.PipelineDepth.Add(1)
		p.e.bbox.Record(blackbox.SubFlush, blackbox.EvFlushEnqueue,
			int64(len(recs)), depth, 0)
		return true
	default:
		p.e.reg.PipelineFallbacks.Add(1)
		p.e.bbox.Record(blackbox.SubFlush, blackbox.EvFlushFallback,
			int64(len(recs)), 0, 0)
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
				p.e.completeAsync(batch.recs, batch.dead)
			})
			p.settleDeferred()
			p.e.reg.PipelineDepth.Add(-1)
		}
	})
}

// deferRelease parks dead until every batch enqueued so far has
// completed. False means nothing is in flight and the caller settles
// them itself. Only the flushing goroutine enqueues, so "so far" cannot
// move under the caller.
func (p *flushPipeline[K]) deferRelease(dead []*store.Record, installed bool) bool {
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
		p.e.fsink.release(d.dead, d.installed)
	}
}

// close stops intake and drains every queued batch through the worker.
// The caller must NOT hold flushMu: completions take it for rollback
// and journal writes.
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

// completeAsync runs the build, install, and release stages for one
// pipelined batch. Success publishes the segment and journals a
// "pipeline" event; failure rolls the eviction back into memory and
// enters degraded mode — the same contract as a synchronous flush
// failure, just later.
func (e *Engine[K]) completeAsync(recs []disk.FlushRecord, dead []*store.Record) {
	start := time.Now()
	fs, wrote, err := e.fsink.writeStaged(recs)
	if wrote {
		// The segment is durable, and so is every batch enqueued before
		// it: the worker is serial.
		e.fsink.release(dead, true)
	}
	if fs.BuildNanos > 0 {
		e.reg.ObserveStage(metrics.StageBuild, time.Duration(fs.BuildNanos))
		e.reg.ObserveStage(metrics.StageInstall, time.Duration(fs.InstallNanos))
	}

	releaseStart := time.Now()
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.journal.Begin(e.pol.Name(), flushlog.TriggerPipeline, 0, e.mem.Used(), start)
	e.journal.Stage("build", fs.BuildNanos)
	e.journal.Stage("install", fs.InstallNanos)
	if err != nil && !wrote {
		// The segment never became durable: the eviction must come back,
		// under fresh claims, before the wrappers it replaces give up
		// theirs.
		e.restoreEvicted(recs)
		e.fsink.release(dead, false)
	}
	release := time.Since(releaseStart)
	e.reg.ObserveStage(metrics.StageRelease, release)
	e.journal.Stage("release", release.Nanoseconds())
	e.bbox.Record(blackbox.SubFlush, blackbox.EvFlushRelease,
		int64(len(recs)), int64(fs.Bytes), release.Nanoseconds())
	e.journal.End(int64(fs.Bytes), e.mem.Used(), time.Since(start), err)
	if err != nil {
		_ = e.fsink.tookWrite() // reset the evidence bit; this batch failed
		e.enterDegraded(err)
		slog.Error("engine: pipelined flush install failed",
			"records", len(recs), "restored", !wrote, "error", err)
		return
	}
	if e.fsink.tookWrite() {
		e.exitDegraded("pipeline install")
	}
}
