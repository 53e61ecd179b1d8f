//go:build failpoint

package engine

import (
	"errors"
	"testing"
	"time"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// newPipelineFaultEngine builds a pipeline-enabled keyword engine with
// the given retry policy, disarming every failpoint around the test.
func newPipelineFaultEngine(t *testing.T, retry disk.RetryPolicy) *Engine[string] {
	t.Helper()
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	eng, err := New(Config[string]{
		K:                  5,
		MemoryBudget:       1 << 30,
		FlushFraction:      0.2,
		KeysOf:             attr.KeywordKeys,
		KeyHash:            attr.HashString,
		KeyLen:             attr.KeywordLen,
		EncodeKey:          attr.KeywordEncode,
		Clock:              clock.NewLogical(1, 1),
		DiskDir:            t.TempDir(),
		DiskRetry:          retry,
		Policy:             core.New[string](),
		TrackOverK:         true,
		FlushPipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func waitDegraded(t *testing.T, e *Engine[string]) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if degraded, reason := e.Degraded(); degraded {
			return reason
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never entered degraded mode")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineInstallFailureRestoresAndDegrades: when an enqueued
// batch's build/install fails on the worker, the eviction must roll
// back into memory (no record loss) and the engine must enter degraded
// read-only mode — the synchronous failure contract, delivered late.
func TestPipelineInstallFailureRestoresAndDegrades(t *testing.T) {
	eng := newPipelineFaultEngine(t, disk.RetryPolicy{Attempts: 1})
	mustEnable(t, failpoint.DiskSegmentWrite, "error")

	eng.fsink.beginCycle(true)
	batch := pipelineBatch(5000, 20)
	if err := eng.fsink.Flush(batch); err != nil {
		t.Fatalf("enqueue must succeed (the failure surfaces async): %v", err)
	}
	if reason := waitDegraded(t, eng); reason == "" {
		t.Fatal("degraded with empty reason")
	}
	waitPipelineIdle(t, eng)

	// Rollback: every record of the failed batch is back in memory and
	// searchable; none reached the tier.
	for _, fr := range batch {
		if eng.store.Get(fr.MB.ID) == nil {
			t.Fatalf("record %d not restored after async install failure", fr.MB.ID)
		}
	}
	got := searchIDs(t, eng, "p", 100)
	for _, fr := range batch {
		if !got[fr.MB.ID] {
			t.Fatalf("record %d unsearchable after rollback", fr.MB.ID)
		}
	}
	if eng.Stats().Disk.Segments != 0 {
		t.Fatal("failed install left a visible segment")
	}
	if _, err := eng.Ingest(&types.Microblog{Keywords: []string{"b"}, Text: "t"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded ingest error = %v, want ErrDegraded", err)
	}

	// Fault clears: a readiness probe restores write service and a
	// manual flush persists the restored records.
	failpoint.Disable(failpoint.DiskSegmentWrite)
	if err := eng.CheckReady(); err != nil {
		t.Fatalf("CheckReady after fault cleared: %v", err)
	}
	if degraded, _ := eng.Degraded(); degraded {
		t.Fatal("still degraded after successful readiness probe")
	}
	if _, err := eng.FlushNow(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
}

// TestPipelineFailureAfterDurableWrite: a post-write fault fails the
// batch AFTER its segment was durably renamed. The engine must degrade
// but must NOT roll the eviction back — restoring records whose segment
// is live would answer them twice.
func TestPipelineFailureAfterDurableWrite(t *testing.T) {
	eng := newPipelineFaultEngine(t, disk.RetryPolicy{})
	mustEnable(t, failpoint.FlushAfterWrite, "error(1)")

	eng.fsink.beginCycle(true)
	batch := pipelineBatch(6000, 12)
	if err := eng.fsink.Flush(batch); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	waitDegraded(t, eng)
	waitPipelineIdle(t, eng)

	// No rollback: memory stays empty of the batch, the segment answers.
	for _, fr := range batch {
		if eng.store.Get(fr.MB.ID) != nil {
			t.Fatalf("record %d restored despite durable segment (would duplicate)", fr.MB.ID)
		}
	}
	got := searchIDs(t, eng, "p", 100)
	if len(got) != len(batch) {
		t.Fatalf("disk answers %d of %d records after post-write fault", len(got), len(batch))
	}
	if eng.Stats().Disk.Segments == 0 {
		t.Fatal("durable segment not visible")
	}

	if err := eng.CheckReady(); err != nil {
		t.Fatalf("CheckReady after one-shot fault: %v", err)
	}
	if degraded, _ := eng.Degraded(); degraded {
		t.Fatal("still degraded after successful readiness probe")
	}
}

// TestDeadOnlyCycleWaitsForQueuedBatch: a record partially flushed in
// batch N and dying in cycle N+1 contributes no payload to N+1 — its
// bytes ride N, which may still be building. Its log claim (and its
// wrapper) must therefore not be released when the dead-only cycle
// ends, only when N has installed: released early, the log file could
// hit zero claims and be unlinked, and a crash before N installs would
// lose an acknowledged record.
func TestDeadOnlyCycleWaitsForQueuedBatch(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	cfg := reclaimConfig(t.TempDir(), t.TempDir(), 1<<30, false, alloc.PolicyPooled)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	if _, err := eng.IngestBatch(soakBatch(0, 20)); err != nil {
		t.Fatal(err)
	}
	if live := eng.wal.Stats().LiveRecords; live != 20 {
		t.Fatalf("claims after ingest = %d", live)
	}
	// Batch N: the payload of records 1..10; 1..9 die with it, record 10
	// stays memory-resident (a partial flush).
	var recs []disk.FlushRecord
	var dead []*store.Record
	for id := types.ID(1); id <= 10; id++ {
		rec := eng.store.Get(id)
		recs = append(recs, disk.FlushRecord{MB: rec.MB, Score: rec.Score, LogSeq: rec.LogSeq})
		if id < 10 {
			dead = append(dead, rec)
		}
	}
	late := eng.store.Get(10)

	mustEnable(t, failpoint.DiskSegmentWrite, "sleep(400)")
	eng.fsink.beginCycle(true)
	if err := eng.fsink.FlushDead(recs, dead); err != nil {
		t.Fatal(err)
	}
	if eng.pipe.depth() != 1 {
		t.Fatalf("batch N not in flight: depth=%d", eng.pipe.depth())
	}
	// Cycle N+1: record 10 dies, nothing to write.
	eng.fsink.beginCycle(true)
	if err := eng.fsink.FlushDead(nil, []*store.Record{late}); err != nil {
		t.Fatal(err)
	}
	if live := eng.wal.Stats().LiveRecords; live != 20 {
		t.Fatalf("claims = %d while batch N is still building, want all 20 held", live)
	}
	if frees := eng.recycler.Stats().Frees; frees != 0 {
		t.Fatalf("%d wrappers recycled while batch N is still building", frees)
	}
	waitPipelineIdle(t, eng)
	if live := eng.wal.Stats().LiveRecords; live != 10 {
		t.Fatalf("claims = %d after batch N installed, want 10", live)
	}
	if frees := eng.recycler.Stats().Frees; frees != 10 {
		t.Fatalf("%d wrappers recycled after batch N installed, want 10", frees)
	}
}
