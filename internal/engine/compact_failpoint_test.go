//go:build failpoint

package engine

import (
	"testing"
	"time"

	"kflushing/internal/alloc"
	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
	"kflushing/internal/query"
)

// TestCloseWaitsForCompaction holds a compaction pass between its merged
// directory going live and the manifest commit while Close runs, started
// by each kind of caller: an explicit CompactAll, and the pass a
// background budget cycle runs after it gives the flush gate back. Close
// must wait for the pass — releasing the tier's segments under it would
// leave the pass indexing an emptied level list — and the reopened store
// must answer every acked record from the merged tier.
func TestCloseWaitsForCompaction(t *testing.T) {
	const hold = 300 * time.Millisecond
	for _, tc := range []struct {
		name string
		// start begins the pass on a goroutine of its own; done closes
		// when that goroutine returns.
		start func(t *testing.T, eng *Engine[string]) (done chan struct{})
	}{
		{"compact-all", func(t *testing.T, eng *Engine[string]) chan struct{} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				if err := eng.CompactAll(); err != nil {
					t.Errorf("CompactAll: %v", err)
				}
			}()
			return done
		}},
		{"after-budget-cycle", func(t *testing.T, eng *Engine[string]) chan struct{} {
			// As maybeFlush starts a budget cycle: gate taken by the
			// trigger, the cycle — and the pass after it — on a goroutine
			// of its own. Its install overflows L0.
			eng.flushMu.Lock()
			done := make(chan struct{})
			go func() { defer close(done); eng.runFlushLocked(blackbox.TriggerBudget) }()
			return done
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failpoint.DisableAll()
			t.Cleanup(failpoint.DisableAll)
			cfg := reclaimConfig(t.TempDir(), 1<<30, false, alloc.PolicyPooled)
			cfg.DiskLevelFanout = 2
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = eng.Close() }) // a second Close is a no-op
			acked := 0
			ingest := func() {
				t.Helper()
				if _, err := eng.IngestBatch(soakBatch(acked, 10)); err != nil {
					t.Fatal(err)
				}
				acked += 10
			}
			// Two segments: L0 at its fanout, nothing to merge yet.
			for range 2 {
				ingest()
				if _, err := eng.FlushNow(); err != nil {
					t.Fatal(err)
				}
			}
			if st := eng.Stats().Disk; st.Segments != 2 || st.Compactions != 0 {
				t.Fatalf("before the pass: %d segments, %d compactions; want 2, 0", st.Segments, st.Compactions)
			}
			ingest()
			mustEnable(t, failpoint.DiskCompactInstall, "sleep(300)")
			done := tc.start(t, eng)
			waitFor(t, "the pass to reach the manifest commit", func() bool {
				return failpoint.Hits(failpoint.DiskCompactInstall) > 0
			})
			ingest() // acked while the pass is held: memory and the log hold it
			start := time.Now()
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if waited := time.Since(start); waited < hold/2 {
				t.Fatalf("Close returned after %v, with the pass held for %v", waited, hold)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the pass never returned after Close")
			}

			failpoint.DisableAll()
			re, err := New(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if segs := re.Stats().Disk.Segments; segs != 1 {
				t.Fatalf("reopened tier: %d segments, want 1: the held pass's merge committed", segs)
			}
			res, err := re.Search(query.Request[string]{Keys: []string{"all"}, K: acked + 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Items) != acked {
				t.Fatalf("%d of %d acked records answered after the reopen", len(res.Items), acked)
			}
		})
	}
}
