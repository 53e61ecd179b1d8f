package engine

import (
	"slices"
	"testing"
	"time"

	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/metrics"
	"kflushing/internal/query"
)

// newPipelineEngine builds a keyword engine with the flush pipeline
// enabled (SyncFlush off).
func newPipelineEngine(t *testing.T, budget int64) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: 0.2,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		DecodeKey:     attr.KeywordDecode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Policy:        core.New[string](),
		TrackOverK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// budgetCycleLocked runs one flush cycle as the background flusher
// does on a budget trigger — the only kind that may enqueue its batch.
// With a budget far above what the tests ingest, the cycle's target
// evicts everything in memory. The caller holds flushMu.
func budgetCycleLocked(t *testing.T, e *Engine[string]) {
	t.Helper()
	if _, err := e.flushCycle(blackbox.TriggerBudget); err != nil {
		t.Fatalf("budget cycle: %v", err)
	}
}

func budgetCycle(t *testing.T, e *Engine[string]) {
	t.Helper()
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	budgetCycleLocked(t, e)
}

// ingestP ingests n records keyed "p" with timestamps from base.
func ingestP(t *testing.T, e *Engine[string], base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ingest(t, e, int64(base+i), "p")
	}
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPipelineIdle polls until every queued batch has completed.
func waitPipelineIdle(t *testing.T, e *Engine[string]) {
	t.Helper()
	waitFor(t, "the pipeline to drain", func() bool { return e.pipe.depth() == 0 })
}

// TestPipelineEnqueueAndComplete drives one batch through the pipeline
// exactly as a budget-triggered cycle does: the cycle enqueues instead
// of writing, the worker builds and installs the segment, and the
// cycle's one record in the flush log holds prepare, run inline, and
// build, install and release, run on the worker.
func TestPipelineEnqueueAndComplete(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30)
	ingestP(t, eng, 1, 20)
	budgetCycle(t, eng)
	if got := eng.reg.PipelineEnqueued.Load(); got != 1 {
		t.Fatalf("PipelineEnqueued = %d, want 1 (batch should have queued, not written inline)", got)
	}
	waitPipelineIdle(t, eng)

	// The segment is durable and searchable through the normal path.
	if n := eng.store.Len(); n != 0 {
		t.Fatalf("%d records still in memory after a cycle that evicts everything", n)
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"p"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 {
		t.Fatalf("search after pipelined flush: %d items, want 5", len(res.Items))
	}
	if res.Items[0].MB.ID != 20 {
		t.Fatalf("top item ID = %d, want 20 (highest score)", res.Items[0].MB.ID)
	}
	if degraded, reason := eng.Degraded(); degraded {
		t.Fatalf("degraded after successful pipelined flush: %s", reason)
	}

	// The completion is on the cycle's own record, with its timings.
	log := flushLog(t, eng)
	if len(log) != 1 || !log[0].Complete {
		t.Fatalf("flush log after one drained cycle = %+v, want one complete cycle", log)
	}
	var stages []string
	for _, st := range log[0].Stages {
		if st.Worker != (st.Name != "prepare") || st.Nanos <= 0 {
			t.Fatalf("stage %+v of a pipelined cycle: only prepare runs inline, and every stage takes time", st)
		}
		stages = append(stages, st.Name)
	}
	if want := []string{"prepare", "build", "install", "release"}; !slices.Equal(stages, want) {
		t.Fatalf("pipelined cycle's stages = %v, want %v", stages, want)
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
// the worker blocked on the flush gate and the queue full, a budget
// cycle completes its batch inline instead of blocking or dropping, and
// every batch still reaches the tier.
func TestPipelineFallbackWhenFull(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30)

	// The worker needs flushMu to conclude a completion; holding it parks
	// the worker on its first batch, so the queue behind it stays full:
	// one batch in the worker's hands, pipelineDepth queued, the rest
	// must fall back.
	eng.flushMu.Lock()
	const cycles = pipelineDepth + 3
	for i := 0; i < cycles; i++ {
		ingestP(t, eng, 1+10*i, 10)
		budgetCycleLocked(t, eng)
	}
	fallbacks := eng.reg.PipelineFallbacks.Load()
	enqueued := eng.reg.PipelineEnqueued.Load()
	eng.flushMu.Unlock()
	if fallbacks == 0 || enqueued > pipelineDepth+1 || fallbacks+enqueued != cycles {
		t.Fatalf("%d cycles against a parked worker: %d enqueued, %d fell back (queue depth %d)",
			cycles, enqueued, fallbacks, pipelineDepth)
	}
	waitPipelineIdle(t, eng)

	// No batch was lost to the full queue: every record answers.
	res, err := eng.Search(query.Request[string]{Keys: []string{"p"}, K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != cycles*10 {
		t.Fatalf("%d records after fallback, want %d", len(res.Items), cycles*10)
	}
}

// TestManualFlushStaysSynchronous: FlushNow and other non-budget
// triggers must not enqueue — their outcome is determined when they
// return, so the batch has to be durable before FlushNow comes back.
func TestManualFlushStaysSynchronous(t *testing.T) {
	eng := newPipelineEngine(t, 1<<30)
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
	// An inline completion reports the same stage breakdown, once.
	snap := eng.reg.Snap()
	for i, st := range snap.Stages {
		if st.Runs != 1 {
			t.Fatalf("stage %s ran %d times over one inline cycle: %+v", metrics.StageNames[i], st.Runs, snap.Stages)
		}
	}
}

// TestBudgetFlushUsesPipeline exercises the real trigger path end to
// end: ingest past the budget on a pipeline-enabled engine and the
// background cycle must enqueue its batch rather than write inline.
func TestBudgetFlushUsesPipeline(t *testing.T) {
	eng := newPipelineEngine(t, 64<<10)
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
		K:             5,
		MemoryBudget:  1 << 30,
		FlushFraction: 0.2,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		DecodeKey:     attr.KeywordDecode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       dir,
		Policy:        core.New[string](),
		TrackOverK:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestP(t, eng, 1, 15)
	budgetCycle(t, eng)
	if got := eng.reg.PipelineEnqueued.Load(); got != 1 {
		t.Fatalf("PipelineEnqueued = %d, want 1", got)
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
