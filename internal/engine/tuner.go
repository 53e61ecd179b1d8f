package engine

import (
	"log/slog"
	"math"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
	"kflushing/internal/tuner"
)

// Adaptive memory tuning (DESIGN.md §7.9). The controller itself lives
// in internal/tuner and is pure arithmetic; this file is the engine's
// side of the loop: sampling the cost signals, gating decision
// application on the flush mutex so targets never change mid-cycle, and
// mirroring the applied targets into atomics the ingest and flush hot
// paths read lock-free.
//
// Application points:
//   - maybeFlush calls maybeTune before its watermark check, so in
//     synchronous-flush (deterministic) engines the tick cadence is
//     driven entirely by the engine clock and the ingest stream.
//   - runFlushLocked ticks after each completed cycle while still
//     holding the gate, so a retuning lands exactly between cycles.
//   - tunerLoop polls in background-flush engines so a query-only or
//     idle workload still ticks without waiting for the next ingest.
//
// The tuner freezes while the engine is degraded: a read-only engine
// must not grow memory targets or churn the cache while the disk tier
// is refusing writes.

// budgetAware is implemented by policies whose victim selection bakes
// in the flush budget (FIFO's temporal segment size); the tuner hands
// them the retuned byte target so future segments track B.
type budgetAware interface {
	SetSegmentBytes(int64)
}

// tunerPollPeriod is the wall cadence at which background-flush engines
// re-check the tick deadline. The check is one atomic load; the real
// cadence is Limits.Interval on the engine clock.
const tunerPollPeriod = 100 * time.Millisecond

// watermarkBytes returns the current flush trigger threshold: the
// static memory budget, or the tuner's target when adaptive memory is
// enabled.
func (e *Engine[K]) watermarkBytes() int64 {
	if e.tun == nil {
		return e.cfg.MemoryBudget
	}
	return e.tunedWatermark.Load()
}

// flushFraction returns the current flush budget B.
func (e *Engine[K]) flushFraction() float64 {
	if e.tun == nil {
		return e.cfg.FlushFraction
	}
	return math.Float64frombits(e.tunedFraction.Load())
}

// tunerSignals samples the cumulative cost counters the controller
// differences: a handful of atomic loads.
func (e *Engine[K]) tunerSignals() tuner.Signals {
	hits, misses := e.tier.CacheCounters()
	return tuner.Signals{
		Ingested:    e.reg.Ingested.Load(),
		Flushes:     e.reg.Flushes.Load(),
		FlushNanos:  e.reg.FlushLatency.Sum(),
		Misses:      e.reg.Misses.Load(),
		MissNanos:   e.reg.MissLatency.Sum(),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

// maybeTune runs one controller tick if the deadline has passed and the
// flush gate is free. Adjustments are never applied while a flush cycle
// holds the gate; a busy gate just defers the tick to the next call.
func (e *Engine[K]) maybeTune() {
	if e.tun == nil || !e.tun.Due(e.clk.Now()) {
		return
	}
	if !e.flushMu.TryLock() {
		return // a flush cycle holds the gate; never adjust mid-cycle
	}
	e.tuneTickLocked()
	e.flushMu.Unlock()
}

// tuneTickLocked evaluates and applies one tuner decision. Callers must
// hold flushMu, so the new targets take effect exactly between flush
// cycles.
func (e *Engine[K]) tuneTickLocked() {
	if e.tun == nil || e.closed.Load() || e.degraded.Load() {
		return // frozen while degraded: read-only engines do not retune
	}
	now := e.clk.Now()
	if !e.tun.Due(now) {
		return
	}
	if err := failpoint.Eval(failpoint.TunerApply); err != nil {
		return // injected apply failure: previous targets stay in force
	}
	dec, changed := e.tun.Tick(now, e.tunerSignals())
	if !dec.Ticked || !changed {
		return
	}
	e.tunedFraction.Store(math.Float64bits(dec.FlushFraction))
	e.tunedWatermark.Store(dec.WatermarkBytes)
	if dec.CacheBytes != e.tunedCache.Load() {
		e.tier.ResizeCache(dec.CacheBytes)
		e.tunedCache.Store(dec.CacheBytes)
	}
	target := int64(dec.FlushFraction * float64(e.cfg.MemoryBudget))
	if ba, ok := e.pol.(budgetAware); ok {
		ba.SetSegmentBytes(target)
	}
	// The adjustment is auditable like any state transition.
	e.bbox.Record(blackbox.SubTuner, blackbox.EvTunerAdjust,
		int64(dec.FlushFraction*10000), dec.WatermarkBytes, dec.CacheBytes)
	slog.Debug("engine: tuner adjustment",
		"policy", e.pol.Name(), "direction", dec.Direction,
		"pressure", dec.Pressure, "flush_fraction", dec.FlushFraction,
		"watermark", dec.WatermarkBytes, "cache", dec.CacheBytes)
}

// tunerLoop is the background tick pump for engines with background
// flushing: it re-checks the clock deadline on a wall cadence so idle
// and query-only workloads still tick. Deterministic engines
// (SyncFlush) have no loop — their ticks ride the ingest path.
func (e *Engine[K]) tunerLoop() {
	defer e.tunWG.Done()
	tick := time.NewTicker(tunerPollPeriod)
	defer tick.Stop()
	for {
		select {
		case <-e.tunStop:
			return
		case <-tick.C:
			e.maybeTune()
		}
	}
}

// TunerState reports the adaptive memory controller's snapshot; ok is
// false when AdaptiveMemory is off.
func (e *Engine[K]) TunerState() (tuner.State, bool) {
	if e.tun == nil {
		return tuner.State{}, false
	}
	return e.tun.State(), true
}
