package engine

import (
	"errors"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/metrics"
	"kflushing/internal/store"
)

// flushBatch is what one flush cycle evicted: the payloads to persist,
// each with the wrapper it came from, and the dead wrappers whose log
// claims come down — and which may be
// recycled — once the payloads are durable. From the policy's return to
// the end of the cycle it is out of memory and not yet on disk, but
// still fully covered by the write-ahead log: the dead wrappers hold
// their claims until the batch has settled. cycle is the ID of the
// flush cycle that evicted it, stamped on its stage events. pins are the
// claims the cycle took on the log files the batch's directory will
// name, given back once it is installed (or the batch restored).
type flushBatch struct {
	recs  []disk.FlushRecord
	from  []*store.Record // from[i] is the wrapper recs[i] came from
	dead  []*store.Record
	cycle uint64
	pins  seqTally
}

// flushSink is the policies' sink: it parks the cycle's batch for
// flushCycle to pick up when the policy returns. Eviction is the
// policy's job and ends here; every step from here to durable (or back
// into memory) is completeBatch's. Only the flushing goroutine touches
// it, under flushMu.
type flushSink struct{ parked flushBatch }

func (s *flushSink) Flush(recs []disk.FlushRecord, from, dead []*store.Record) {
	s.parked = flushBatch{recs: recs, from: from, dead: dead}
}

// take returns the parked batch (empty when the policy evicted nothing).
func (s *flushSink) take() flushBatch {
	b := s.parked
	s.parked = flushBatch{}
	return b
}

// completeBatch walks one evicted batch from "out of memory" to
// "durable, claims released" or "restored": the build → install →
// release stages every flush goes through after prepare. The cycle that
// evicted the batch runs it under the flush gate it already holds, so
// every earlier batch has completed and no other goroutine touches this
// one. A batch that never became durable comes back into memory, under
// fresh claims, before the wrappers it replaces give theirs back (and
// are left to the garbage collector); then the stages that ran are
// booked, once, to the histograms and — under the cycle's ID — to the
// flight recorder. durable reports that this very completion installed
// a segment, the only evidence that clears degraded mode (a batch with
// nothing to write is installed without being durable); err fails the
// cycle.
func (e *Engine[K]) completeBatch(b flushBatch) (durable bool, err error) {
	var fs disk.FlushStats
	if len(b.recs) > 0 {
		err = failpoint.Eval(failpoint.FlushAfterEvict)
		var seal time.Duration
		if err == nil && e.wal != nil {
			// The directory names only sealed, fsynced log files: seal the
			// one the newest victims may sit in. Booked to build.
			start := time.Now()
			err = e.wal.Seal()
			seal = time.Since(start)
		}
		var unsynced error
		if err == nil {
			err = e.cfg.DiskRetry.Do(func() error {
				var werr error
				fs, werr = e.tier.FlushStaged(b.recs)
				if errors.Is(werr, disk.ErrCommitUnsynced) {
					// Installed all the same: a retry would write the
					// batch twice.
					unsynced, werr = werr, nil
				}
				return werr
			})
			durable = err == nil
		}
		if durable {
			fs.BuildNanos += seal.Nanoseconds()
			// A failure from here on fails the cycle but restores
			// nothing: the segment is live, and records brought back
			// beside it would be answered twice.
			err = failpoint.Eval(failpoint.FlushAfterWrite)
			if err == nil {
				err = unsynced
			}
		}
	}

	start := time.Now()
	installed := durable || len(b.recs) == 0
	if !installed {
		e.restoreEvicted(b.recs, b.from)
	}
	e.settle(b.dead, installed)
	if e.wal != nil {
		e.releaseTally(b.pins)
	}
	release := time.Since(start)

	recs := int64(len(b.recs))
	if fs.BuildNanos > 0 {
		e.reg.ObserveStage(metrics.StageBuild, time.Duration(fs.BuildNanos))
		e.reg.ObserveStage(metrics.StageInstall, time.Duration(fs.InstallNanos))
		e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushBuild, b.cycle, 0, recs, fs.Bytes, fs.BuildNanos)
		e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushInstall, b.cycle, 0, recs, fs.Bytes, fs.InstallNanos)
	}
	e.reg.ObserveStage(metrics.StageRelease, release)
	e.bbox.RecordID(blackbox.SubFlush, blackbox.EvFlushRelease, b.cycle, 0, recs, fs.Bytes, release.Nanoseconds())
	return durable, err
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
