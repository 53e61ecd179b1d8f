package engine

import (
	"errors"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/metrics"
	"kflushing/internal/policy"
	"kflushing/internal/store"
)

// flushBatch is what one flush cycle evicted: the policy's batch, out
// of memory and not yet on disk from the policy's return to the end of
// the cycle, but still fully covered by the write-ahead log: each record
// keeps its claims on its own wrapper — a partly evicted one is still
// resident, a dead one holds them until the batch has settled — and
// nothing moves a cover meanwhile, since reclaim lists survivors under
// the same flush gate. cycle is the ID of the flush cycle that evicted
// it, stamped on its stage events.
type flushBatch struct {
	policy.Batch
	cycle uint64
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
	if len(b.Recs) > 0 {
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
				fs, werr = e.tier.FlushStaged(b.Recs)
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
	installed := durable || len(b.Recs) == 0
	if !installed {
		e.restoreEvicted(b.Recs, b.From)
	}
	e.settle(b.Dead, installed)
	release := time.Since(start)

	recs := int64(len(b.Recs))
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
