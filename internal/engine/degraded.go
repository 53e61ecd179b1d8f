package engine

import (
	"errors"
	"log/slog"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/flushlog"
	"kflushing/internal/store"
)

// ErrDegraded reports the engine is in degraded read-only mode: a flush
// cycle failed to write the disk tier even after retries, so ingestion
// is rejected until a tier write or readiness probe succeeds. Searches
// keep answering from memory and the readable segments throughout.
var ErrDegraded = errors.New("engine: degraded read-only mode, tier writes failing")

// restoreEvicted rolls a failed eviction back into memory: records that
// never became durable are re-stored and re-indexed, and records that
// stayed memory-resident (partial flushes) lose their on-disk mark so a
// later flush writes them again. Every evicted record is still
// WAL-covered — its dead wrapper's claim is not released before this
// returns — and the wrapper re-created here takes a claim of its own on
// the same log file, so a crash loses nothing either way. Callers must
// hold flushMu.
func (e *Engine[K]) restoreEvicted(failed []disk.FlushRecord) {
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
		e.admit(rec, fr.LogSeq, keys)
		claimed.add(fr.LogSeq)
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

// flushOutcome is where a flush decides the engine's write health: any
// failure enters degraded mode, and only a segment made durable by that
// very completion is evidence the fault cleared. Callers hold flushMu.
func (e *Engine[K]) flushOutcome(err error, durable bool, via string) {
	if err != nil {
		e.enterDegraded(err)
	} else if durable {
		e.exitDegraded(via)
	}
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
