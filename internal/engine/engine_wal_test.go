package engine

import (
	"fmt"
	"path/filepath"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

func newDurableEngine(t *testing.T, dir string) *Engine[string] {
	t.Helper()
	return newDurableEngineBudget(t, dir, 1<<20)
}

func newDurableEngineBudget(t *testing.T, dir string, budget int64) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: 0.2,
		Attr:          attr.Keyword(),
		DiskDir:       dir,
		Durable:       true,
		WALOptions:    wal.Options{MaxFileBytes: 4 << 10},
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestWALRecoveryPreservesScoresAndOrder(t *testing.T) {
	dir := t.TempDir()
	eng := newDurableEngine(t, dir)
	for i := 1; i <= 30; i++ {
		ingest(t, eng, int64(i*10), "key")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := newDurableEngine(t, dir)
	defer re.Close()
	res, err := re.Search(query.Request[string]{Keys: []string{"key"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || len(res.Items) != 5 {
		t.Fatalf("hit=%v items=%d", res.MemoryHit, len(res.Items))
	}
	for i, it := range res.Items {
		want := types.Timestamp((30 - i) * 10)
		if it.MB.Timestamp != want {
			t.Fatalf("rank %d ts=%d, want %d", i, it.MB.Timestamp, want)
		}
	}
	// Memory gauges reflect recovered contents.
	if re.Mem().Used() == 0 || re.Store().Len() != 30 {
		t.Fatalf("recovered gauges: used=%d records=%d", re.Mem().Used(), re.Store().Len())
	}
}

func TestWALRecoveryTriggersFlushWhenOverBudget(t *testing.T) {
	dir := t.TempDir()
	eng := newDurableEngine(t, dir)
	// Flushing (and log reclaim) happens during this loop; what is left
	// in the log is a bounded multiple of the budget.
	for i := 1; i <= 9000; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%31))
	}
	// Crash: skip Close.

	// Reopen with a quarter of the budget, so the log certainly replays
	// more than memory may hold: recovery must flush as it goes, never
	// not once at the end.
	const budget = 256 << 10
	re := newDurableEngineBudget(t, dir, budget)
	defer re.Close()
	if used := re.Mem().Used(); used > budget {
		t.Fatalf("recovered memory %d above the %d budget", used, budget)
	}
	// One cycle at the end of replay could not have done that: each
	// frees a fifth of the budget, and the log held several budgets.
	if n := re.Metrics().Flushes.Load(); n < 2 {
		t.Fatalf("%d flush cycles during over-budget recovery, want several", n)
	}
}

func TestWALDisabledHasNoFiles(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	ingest(t, eng, 1, "a")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Without a log the flush writes record blocks and no log file.
	if logs, _ := filepath.Glob(filepath.Join(eng.cfg.DiskDir, "wal-*.kfw")); len(logs) != 0 {
		t.Fatalf("a non-durable engine left log files %v", logs)
	}
}
