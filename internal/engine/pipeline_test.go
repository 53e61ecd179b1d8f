package engine

import (
	"testing"
	"time"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/flushlog"
	"kflushing/internal/metrics"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// newPipelineEngine builds a keyword engine with the flush pipeline
// enabled (SyncFlush off, bounded queue of the given depth).
func newPipelineEngine(t *testing.T, budget int64, depth int) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:                  5,
		MemoryBudget:       budget,
		FlushFraction:      0.2,
		KeysOf:             attr.KeywordKeys,
		KeyHash:            attr.HashString,
		KeyLen:             attr.KeywordLen,
		EncodeKey:          attr.KeywordEncode,
		Clock:              clock.NewLogical(1, 1),
		DiskDir:            t.TempDir(),
		Policy:             core.New[string](),
		TrackOverK:         true,
		FlushPipelineDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// pipelineBatch builds a flush batch of n records keyed "p", with IDs
// starting at base — IDs deliberately absent from the engine's memory
// store, the state of a record after prepare has evicted it.
func pipelineBatch(base uint64, n int) []disk.FlushRecord {
	recs := make([]disk.FlushRecord, 0, n)
	for i := 0; i < n; i++ {
		id := base + uint64(i)
		recs = append(recs, disk.FlushRecord{
			MB: &types.Microblog{
				ID:        types.ID(id),
				Timestamp: types.Timestamp(id),
				Keywords:  []string{"p"},
				Text:      "text",
			},
			Score: float64(id),
		})
	}
	return recs
}

// waitPipelineIdle polls until every queued batch has completed.
func waitPipelineIdle(t *testing.T, e *Engine[string]) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.pipe.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: depth=%d", e.pipe.depth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineEnqueueAndComplete drives one batch through the async
// path exactly as a budget-triggered cycle would: the sink enqueues
// instead of writing, the worker builds and installs the segment, and
// the completion is journaled as a "pipeline" event with build, install
// and release stage timings.
func TestPipelineEnqueueAndComplete(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30, 4)
	eng.fsink.beginCycle(true)
	if err := eng.fsink.Flush(pipelineBatch(1000, 20)); err != nil {
		t.Fatalf("async flush: %v", err)
	}
	if got := eng.reg.PipelineEnqueued.Load(); got != 1 {
		t.Fatalf("PipelineEnqueued = %d, want 1 (batch should have queued, not written inline)", got)
	}
	waitPipelineIdle(t, eng)

	// The segment is durable and searchable through the normal path.
	res, err := eng.Search(query.Request[string]{Keys: []string{"p"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 {
		t.Fatalf("search after pipelined flush: %d items, want 5", len(res.Items))
	}
	if res.Items[0].MB.ID != 1019 {
		t.Fatalf("top item ID = %d, want 1019 (highest score)", res.Items[0].MB.ID)
	}
	if degraded, reason := eng.Degraded(); degraded {
		t.Fatalf("degraded after successful pipelined flush: %s", reason)
	}

	// The completion is journaled with its stage timings.
	var pipe *flushlog.Event
	for _, ev := range eng.Journal().Last(0) {
		if ev.Trigger == flushlog.TriggerPipeline {
			e := ev
			pipe = &e
		}
	}
	if pipe == nil {
		t.Fatal("no pipeline event in the flush journal")
	}
	stages := map[string]bool{}
	for _, st := range pipe.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"build", "install", "release"} {
		if !stages[want] {
			t.Fatalf("pipeline event missing stage %q: %+v", want, pipe.Stages)
		}
	}

	// Stage histograms observed the async build and install.
	snap := eng.reg.Snap()
	if snap.Stages[metrics.StageBuild].Runs == 0 || snap.Stages[metrics.StageInstall].Runs == 0 {
		t.Fatalf("stage histograms empty after pipelined flush: %+v", snap.Stages)
	}
	if snap.PipelineDepth != 0 {
		t.Fatalf("PipelineDepth = %d after drain", snap.PipelineDepth)
	}
}

// TestPipelineFallbackWhenFull proves the bounded-queue contract: with
// the worker blocked on the flush gate and the queue full, the sink
// falls back to the synchronous write path instead of blocking or
// dropping, and every batch still reaches the tier.
func TestPipelineFallbackWhenFull(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30, 1)

	// The worker's release stage needs flushMu; holding it parks the
	// worker after its first dequeue so the queue stays occupied.
	eng.flushMu.Lock()
	const batches = 4
	for i := 0; i < batches; i++ {
		eng.fsink.beginCycle(true)
		if err := eng.fsink.Flush(pipelineBatch(uint64(2000+100*i), 10)); err != nil {
			eng.flushMu.Unlock()
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	fallbacks := eng.reg.PipelineFallbacks.Load()
	eng.flushMu.Unlock()
	if fallbacks == 0 {
		t.Fatal("queue of depth 1 absorbed 4 batches with no synchronous fallback")
	}
	waitPipelineIdle(t, eng)

	// No batch was lost to the full queue: all 40 records answer.
	res, err := eng.Search(query.Request[string]{Keys: []string{"p"}, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != batches*10 {
		t.Fatalf("%d records after fallback, want %d", len(res.Items), batches*10)
	}
}

// TestManualFlushStaysSynchronous: FlushNow and other non-budget
// triggers must not enqueue — their outcome is determined when they
// return, so the batch has to be durable before FlushNow comes back.
func TestManualFlushStaysSynchronous(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30, 4)
	for i := 0; i < 40; i++ {
		ingest(t, eng, int64(i+1), "q", "all")
	}
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if got := eng.reg.PipelineEnqueued.Load(); got != 0 {
		t.Fatalf("manual flush enqueued %d batches, want 0 (must stay synchronous)", got)
	}
	if eng.Stats().Disk.Segments == 0 {
		t.Fatal("manual flush wrote no segment")
	}
	// The synchronous path still reports its stage breakdown.
	snap := eng.reg.Snap()
	if snap.Stages[metrics.StagePrepare].Runs == 0 || snap.Stages[metrics.StageBuild].Runs == 0 {
		t.Fatalf("sync flush recorded no prepare/build stages: %+v", snap.Stages)
	}
}

// TestBudgetFlushUsesPipeline exercises the real trigger path end to
// end: ingest past the budget on a pipeline-enabled engine and the
// background cycle must enqueue its batch rather than write inline.
func TestBudgetFlushUsesPipeline(t *testing.T) {
	eng := newPipelineEngine(t, 64<<10, 4)
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for eng.reg.PipelineEnqueued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("budget-triggered flushes never used the pipeline")
		}
		i++
		ingest(t, eng, int64(i), "w", "all")
	}
	waitPipelineIdle(t, eng)
	if degraded, reason := eng.Degraded(); degraded {
		t.Fatalf("degraded under pipelined budget flushes: %s", reason)
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"all"}, K: 5}); err != nil {
		t.Fatalf("search during pipelined ingest: %v", err)
	}
}

// TestCloseDrainsPipeline: a batch queued but not yet installed when
// Close is called must reach the tier before the engine shuts down —
// queued batches never fall into the void.
func TestCloseDrainsPipeline(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(Config[string]{
		K:                  5,
		MemoryBudget:       1 << 30,
		FlushFraction:      0.2,
		KeysOf:             attr.KeywordKeys,
		KeyHash:            attr.HashString,
		KeyLen:             attr.KeywordLen,
		EncodeKey:          attr.KeywordEncode,
		Clock:              clock.NewLogical(1, 1),
		DiskDir:            dir,
		Policy:             core.New[string](),
		TrackOverK:         true,
		FlushPipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.fsink.beginCycle(true)
	if err := eng.fsink.Flush(pipelineBatch(3000, 15)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close with queued batch: %v", err)
	}

	// Reopen the directory cold: the batch must be on disk.
	tier, err := disk.Open(disk.Config[string]{
		Dir:    dir,
		KeysOf: attr.KeywordKeys,
		Encode: attr.KeywordEncode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	items, err := tier.Search([]string{"p"}, query.OpSingle, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 15 {
		t.Fatalf("reopened tier answers %d of 15 queued records", len(items))
	}
}
