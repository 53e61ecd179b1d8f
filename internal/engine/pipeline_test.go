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
	"kflushing/internal/policy"
	"kflushing/internal/query"
)

// newBackgroundEngine builds a keyword engine that flushes on a
// background goroutine (SyncFlush off).
func newBackgroundEngine(t *testing.T, budget int64) *Engine[string] {
	t.Helper()
	eng, err := New(backgroundConfig(t.TempDir(), budget))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func backgroundConfig(dir string, budget int64) Config[string] {
	return Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: 0.2,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       dir,
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
	}
}

// budgetCycleLocked runs one flush cycle as the flusher does on a budget
// trigger. With a budget far above what the tests ingest, the cycle's
// target evicts everything in memory. The caller holds flushMu.
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

// TestBudgetCycleCompletes drives one budget cycle on a background
// engine: when it gives the gate back its batch is installed, and the
// cycle's one record in the flush log holds prepare, build, install and
// release.
func TestBudgetCycleCompletes(t *testing.T) {
	eng := newBackgroundEngine(t, 1<<30)
	ingestP(t, eng, 1, 20)
	budgetCycle(t, eng)
	if d := eng.DiskHealth().PipelineDepth; d != 0 {
		t.Fatalf("PipelineDepth = %d after the cycle returned", d)
	}

	// The segment is durable and searchable through the normal path.
	if n := eng.store.Len(); n != 0 {
		t.Fatalf("%d records still in memory after a cycle that evicts everything", n)
	}
	if eng.Stats().Disk.Segments != 1 {
		t.Fatal("budget cycle installed no segment")
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"p"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 {
		t.Fatalf("search after budget flush: %d items, want 5", len(res.Items))
	}
	if res.Items[0].MB.ID != 20 {
		t.Fatalf("top item ID = %d, want 20 (highest score)", res.Items[0].MB.ID)
	}
	if degraded, reason := eng.Degraded(); degraded {
		t.Fatalf("degraded after successful budget flush: %s", reason)
	}

	// The completion is on the cycle's own record, with its timings.
	log := flushLog(t, eng)
	if len(log) != 1 || !log[0].Complete {
		t.Fatalf("flush log after one cycle = %+v, want one complete cycle", log)
	}
	var stages []string
	for _, st := range log[0].Stages {
		if st.Nanos <= 0 {
			t.Fatalf("stage %+v of a budget cycle took no time", st)
		}
		stages = append(stages, st.Name)
	}
	if want := []string{"prepare", "build", "install", "release"}; !slices.Equal(stages, want) {
		t.Fatalf("budget cycle's stages = %v, want %v", stages, want)
	}

	// Stage histograms observed the build and install.
	snap := eng.reg.Snap()
	if snap.Stages[metrics.StageBuild].Runs == 0 || snap.Stages[metrics.StageInstall].Runs == 0 {
		t.Fatalf("stage histograms empty after budget flush: %+v", snap.Stages)
	}
	if snap.PipelineDepth != 0 || snap.PipelineFallbacks != 0 {
		t.Fatalf("PipelineDepth = %d, PipelineFallbacks = %d after the cycle", snap.PipelineDepth, snap.PipelineFallbacks)
	}
}

// TestManualFlushStaysSynchronous: the batch of a FlushNow is durable
// before FlushNow comes back, and its stages are booked once.
func TestManualFlushStaysSynchronous(t *testing.T) {
	eng := newBackgroundEngine(t, 1<<30)
	for i := 0; i < 40; i++ {
		ingest(t, eng, int64(i+1), "q", "all")
	}
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Disk.Segments == 0 {
		t.Fatal("manual flush wrote no segment")
	}
	snap := eng.reg.Snap()
	for i, st := range snap.Stages {
		if st.Runs != 1 {
			t.Fatalf("stage %s ran %d times over one cycle: %+v", metrics.StageNames[i], st.Runs, snap.Stages)
		}
	}
}

// TestBudgetFlushCompletesInBackground exercises the real trigger path
// end to end: ingest past the budget on a background engine, and the
// cycles the flusher ran have installed their batches by the time the
// flush gate is free again.
func TestBudgetFlushCompletesInBackground(t *testing.T) {
	eng := newBackgroundEngine(t, 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for eng.reg.Flushes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no budget-triggered flush ran")
		}
		i++
		ingest(t, eng, int64(i), "w", "all")
	}
	func() {
		eng.flushMu.Lock()
		defer eng.flushMu.Unlock()
		if segments, depth := eng.Stats().Disk.Segments, eng.DiskHealth().PipelineDepth; segments == 0 || depth != 0 {
			t.Fatalf("after a budget cycle: %d segments, PipelineDepth %d", segments, depth)
		}
		for _, c := range flushLog(t, eng) {
			if c.Trigger != "budget" || !c.Complete {
				t.Fatalf("cycle %+v: want complete budget cycles only", c)
			}
		}
	}()
	if degraded, reason := eng.Degraded(); degraded {
		t.Fatalf("degraded under background budget flushes: %s", reason)
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"all"}, K: 5}); err != nil {
		t.Fatalf("search after background flushes: %v", err)
	}
}

// TestCloseDrainsPipeline: a batch a background cycle evicted but has
// not yet installed when Close is called must reach the tier before the
// engine shuts down — an evicted batch never falls into the void.
func TestCloseDrainsPipeline(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(backgroundConfig(dir, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	ingestP(t, eng, 1, 15)
	// As maybeFlush starts a budget cycle: the gate is taken here and the
	// cycle runs, and gives it back, on a goroutine of its own, so it is
	// in flight when Close begins.
	eng.flushMu.Lock()
	go eng.runFlushLocked(blackbox.TriggerBudget)
	if err := eng.Close(); err != nil {
		t.Fatalf("close with a cycle in flight: %v", err)
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
		t.Fatalf("reopened tier answers %d of 15 evicted records", len(items))
	}
}
