package engine

import (
	"errors"
	"log/slog"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/store"
)

// ErrDegraded reports the engine is in degraded read-only mode: a flush
// cycle failed to write the disk tier even after retries, so ingestion
// is rejected until a tier write or readiness probe succeeds. Searches
// keep answering from memory and the readable segments throughout.
var ErrDegraded = errors.New("engine: degraded read-only mode, tier writes failing")

// restoreEvicted rolls a failed eviction back into memory: records that
// never became durable are re-admitted and re-indexed, and records that
// stayed memory-resident (partial flushes) lose their on-disk mark so a
// later flush writes them again. from[i] is the wrapper failed[i] was
// taken from: it is still resident exactly when it still holds a
// posting, since nothing evicts while the caller holds the gate. Every evicted record is still
// WAL-covered — its dead wrapper's claims are not released before this
// returns, and the batch pins the files they name — and the wrapper
// re-created here takes claims of its own on the same log files, so a
// crash loses nothing either way. Callers must
// hold flushMu.
func (e *Engine[K]) restoreEvicted(failed []disk.FlushRecord, from []*store.Record) {
	var recs []*store.Record
	var recKeys [][]K
	var claimed seqTally
	unmarked := 0
	for i, fr := range failed {
		if rec := from[i]; rec.PCount() > 0 {
			rec.UnmarkOnDisk()
			unmarked++
			continue
		}
		keys := e.cfg.KeysOf(fr.MB)
		if len(keys) == 0 {
			continue
		}
		rec := e.newRecord(fr.MB, fr.Score)
		e.admit(rec, fr, keys)
		claimed.add(fr.ReplaySeq, fr.LogSeq)
		recs = append(recs, rec)
		recKeys = append(recKeys, keys)
	}
	if e.wal != nil {
		for _, c := range claimed {
			e.wal.Claim(c.replay, c.log, c.n)
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
// very completion is evidence the fault cleared. cycle is the ID of the
// flush cycle whose batch it was. Callers hold flushMu.
func (e *Engine[K]) flushOutcome(err error, durable bool, cycle uint64) {
	if err != nil {
		e.enterDegraded(err, cycle)
	} else if durable {
		e.exitDegraded("flush")
	}
}

// enterDegraded flips the engine into degraded read-only mode. On the
// transition edge it records a degraded_enter event — under the failing
// cycle's ID, the cause as its note — and dumps the flight recorder to
// the tier directory: the rings hold the WAL, flush and disk events
// that led here, which is exactly the evidence an incident review
// needs, and the dump's last event names the cycle to look for.
func (e *Engine[K]) enterDegraded(cause error, cycle uint64) {
	e.degradedReason.Store(cause.Error())
	if e.degraded.CompareAndSwap(false, true) {
		slog.Error("engine: entering degraded read-only mode", "cause", cause, "cycle", cycle)
		e.bbox.RecordNote(blackbox.SubState, blackbox.EvDegradedEnter, cycle, 0, 0, 0, 0, cause.Error())
		e.dumpBlackbox("degraded")
	}
}

// exitDegraded leaves degraded mode after evidence the tier accepts
// writes again (a successful flush or readiness probe). Callers must
// hold flushMu, so the state cannot flip under a cycle deciding it.
func (e *Engine[K]) exitDegraded(via string) {
	if e.degraded.CompareAndSwap(true, false) {
		slog.Info("engine: leaving degraded mode", "via", via)
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
