//go:build failpoint

package engine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"kflushing/internal/alloc"
	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/metrics"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// TestFlushCompletionMatrix drives the five ways a batch's completion
// can end through the three ways a cycle gets run, on a durable engine,
// and holds every cell to the same observables: there is one completion
// routine, run by the cycle that evicted the batch, so who runs the
// cycle must not show.
func TestFlushCompletionMatrix(t *testing.T) {
	outcomes := []struct {
		name       string
		retry      disk.RetryPolicy
		site, spec string // armed for the batch under test only
		minHits    int64
		wrote      bool // the segment becomes durable
		fails      bool // the completion errs: degraded mode
		persists   bool // the fault outlives the batch: write probes fail too
	}{
		{name: "success", wrote: true},
		{name: "transient-masked-by-retry", retry: disk.RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
			site: failpoint.DiskSegmentCreate, spec: "error(2)", minHits: 3, wrote: true},
		{name: "persistent-write-failure", retry: disk.RetryPolicy{Attempts: 1},
			site: failpoint.DiskSegmentCreate, spec: "error", fails: true, persists: true},
		{name: "after-evict", site: failpoint.FlushAfterEvict, spec: "error(1)", fails: true},
		{name: "after-write", site: failpoint.FlushAfterWrite, spec: "error(1)", wrote: true, fails: true},
	}
	const (
		background = "background" // budget cycle on the flusher's own goroutine
		syncBudget = "sync"       // SyncFlush engine: budget cycle on the caller's goroutine
		flushNow   = "flushnow"   // FlushNow on a background engine
	)
	for _, mode := range []string{background, syncBudget, flushNow} {
		for _, oc := range outcomes {
			t.Run(mode+"/"+oc.name, func(t *testing.T) {
				failpoint.DisableAll()
				t.Cleanup(failpoint.DisableAll)
				cfg := reclaimConfig(t.TempDir(), 1<<30, mode == syncBudget, alloc.PolicyPooled)
				cfg.DiskRetry = oc.retry
				eng, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = eng.Close() })
				acked := 0
				load := func(n int) {
					t.Helper()
					if _, err := eng.IngestBatch(soakBatch(acked, n)); err != nil {
						t.Fatal(err)
					}
					acked += n
				}
				// Every acked ID answers exactly once, and every log claim
				// belongs to a memory-resident record.
				checkQuiescent := func() {
					t.Helper()
					res, err := eng.Search(query.Request[string]{Keys: []string{"all"}, K: acked + 100})
					if err != nil {
						t.Fatal(err)
					}
					seen := make(map[types.ID]bool, len(res.Items))
					for _, it := range res.Items {
						if seen[it.MB.ID] {
							t.Fatalf("record %d answered twice", it.MB.ID)
						}
						seen[it.MB.ID] = true
					}
					if len(seen) != acked {
						t.Fatalf("%d of %d acked records answerable", len(seen), acked)
					}
					if live := eng.wal.Stats().LiveRecords; live != eng.store.Len() {
						t.Fatalf("%d log claims for %d memory-resident records", live, eng.store.Len())
					}
				}

				if oc.site != "" {
					mustEnable(t, oc.site, oc.spec)
				}
				// The cycle evicts all of memory (the budget dwarfs what is
				// loaded), so it completes exactly one batch.
				const n = 20
				load(n)
				var cycleErr error
				switch mode {
				case background, syncBudget:
					// As maybeFlush runs a budget cycle: the gate taken by
					// the trigger, the cycle on a goroutine of its own or
					// on the caller's, its error left for Err.
					eng.flushMu.Lock()
					if mode == background {
						done := make(chan struct{})
						go func() { defer close(done); eng.runFlushLocked(blackbox.TriggerBudget) }()
						<-done
					} else {
						eng.runFlushLocked(blackbox.TriggerBudget)
					}
					cycleErr = eng.Err()
				case flushNow:
					_, cycleErr = eng.FlushNow()
				}
				if (cycleErr != nil) != oc.fails {
					t.Fatalf("cycle error = %v", cycleErr)
				}
				if d := eng.DiskHealth().PipelineDepth; d != 0 {
					t.Fatalf("PipelineDepth = %d once the cycle gave the gate back", d)
				}
				if hits := failpoint.Hits(oc.site); hits < oc.minHits {
					t.Fatalf("%s evaluated %d times, want >= %d", oc.site, hits, oc.minHits)
				}

				// The batch is restored iff its segment never became
				// durable; a post-write failure degrades without restoring.
				segments := 0
				if oc.wrote {
					segments++
				}
				if got := eng.Stats().Disk.Segments; got != segments {
					t.Fatalf("%d segments visible, want %d", got, segments)
				}
				wantResident := 0
				if !oc.wrote {
					wantResident = n
				}
				if got := eng.store.Len(); got != int64(wantResident) {
					t.Fatalf("%d records memory-resident after the batch completed, want %d", got, wantResident)
				}
				degraded, reason := eng.Degraded()
				if st := eng.Stats(); degraded != oc.fails || (reason == "") == oc.fails ||
					st.Degraded != degraded || st.DegradedReason != reason {
					t.Fatalf("degraded=%v reason=%q (stats %v %q), want degraded=%v", degraded, reason, st.Degraded, st.DegradedReason, oc.fails)
				}
				if oc.fails {
					if _, err := eng.Ingest(&types.Microblog{Keywords: []string{"b"}, Text: "t"}); !errors.Is(err, ErrDegraded) {
						t.Fatalf("degraded ingest error = %v, want ErrDegraded", err)
					}
				}
				if oc.persists {
					if err := eng.CheckReady(); !errors.Is(err, ErrDegraded) {
						t.Fatalf("CheckReady = %v while the fault persists, want ErrDegraded", err)
					}
				}
				failpoint.DisableAll()
				checkQuiescent()

				// The batch observed the release stage once, and the cycle
				// books no more stage time than it took (flushLog checks).
				// It is one complete record carrying the stages under its
				// own ID.
				if runs := eng.reg.Snap().Stages[metrics.StageRelease].Runs; runs != 1 {
					t.Fatalf("release stage observed %d times over one completed batch", runs)
				}
				want := []blackbox.FlushStage{{Name: "prepare"}}
				if oc.wrote {
					want = append(want, blackbox.FlushStage{Name: "build"}, blackbox.FlushStage{Name: "install"})
				}
				want = append(want, blackbox.FlushStage{Name: "release"})
				log := flushLog(t, eng)
				if len(log) != 1 || !log[0].Complete {
					t.Fatalf("flush log = %+v, want one complete cycle", log)
				}
				cycle := log[0]
				got := slices.Clone(cycle.Stages)
				for i := range got {
					got[i].Nanos = 0
				}
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d stages = %+v, want %+v", cycle.ID, got, want)
				}
				if (cycle.Err != "") != oc.fails {
					t.Fatalf("cycle %d error = %q, want one: %v", cycle.ID, cycle.Err, oc.fails)
				}
				// The completion's events are exactly the cycle's: every
				// event under its ID, and — a failure — the degraded entry
				// that names it and the cause.
				var entered []blackbox.Event
				for _, ev := range eng.Blackbox().Events() {
					if ev.Event == "degraded_enter" {
						entered = append(entered, ev)
					}
				}
				if (len(entered) == 1) != oc.fails {
					t.Fatalf("degraded_enter events = %+v, want one: %v", entered, oc.fails)
				}
				if oc.fails && (entered[0].ID != cycle.ID || entered[0].Note != cycle.Err) {
					t.Fatalf("degraded_enter = %+v, want cycle %d and cause %q", entered[0], cycle.ID, cycle.Err)
				}

				// The fault is gone: a readiness probe restores write
				// service, and the restored records flush.
				if err := eng.CheckReady(); err != nil {
					t.Fatalf("CheckReady after the fault cleared: %v", err)
				}
				if degraded, _ := eng.Degraded(); degraded {
					t.Fatal("still degraded after a successful readiness probe")
				}
				if oc.fails && !slices.ContainsFunc(eng.Blackbox().Events(), func(ev blackbox.Event) bool {
					return ev.Event == "degraded_clear"
				}) {
					t.Fatal("no degraded_clear event in the flight recorder")
				}
				load(5)
				if _, err := eng.FlushNow(); err != nil {
					t.Fatalf("flush after recovery: %v", err)
				}
				checkQuiescent()
				if n := eng.store.Len(); n != 0 {
					t.Fatalf("%d records left in memory by a flush on a healthy tier", n)
				}
			})
		}
	}
}

// TestBudgetCycleCompletesUnderGate holds a background budget cycle
// between eviction and build: its batch counts as in flight, and a
// FlushNow waits behind it rather than overtaking the batch. Once the
// cycle gives the gate back, the batch is installed and the cycle's
// record carries every stage under its ID.
func TestBudgetCycleCompletesUnderGate(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	eng := newBackgroundEngine(t, 1<<30)
	ingestP(t, eng, 1, 20)
	mustEnable(t, failpoint.FlushAfterEvict, "sleep(200)")

	// As maybeFlush starts a budget cycle: gate taken by the trigger, the
	// cycle on a goroutine of its own.
	eng.flushMu.Lock()
	cycleDone := make(chan struct{})
	go func() { defer close(cycleDone); eng.runFlushLocked(blackbox.TriggerBudget) }()
	waitFor(t, "the cycle to evict", func() bool { return eng.DiskHealth().PipelineDepth == 1 })
	flushed := make(chan error, 1)
	go func() { _, err := eng.FlushNow(); flushed <- err }()
	select {
	case err := <-flushed:
		t.Fatalf("FlushNow returned (%v) while the budget cycle's batch was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if d := eng.DiskHealth().PipelineDepth; d != 1 {
		t.Fatalf("PipelineDepth = %d while the batch sits between eviction and build, want 1", d)
	}
	<-cycleDone
	if err := <-flushed; err != nil {
		t.Fatalf("FlushNow: %v", err)
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("budget cycle: %v", err)
	}

	if d := eng.DiskHealth().PipelineDepth; d != 0 {
		t.Fatalf("PipelineDepth = %d after the cycles", d)
	}
	if segs := eng.Stats().Disk.Segments; segs != 1 {
		t.Fatalf("%d segments installed, want the budget cycle's one", segs)
	}
	var budget []blackbox.FlushCycle
	for _, c := range flushLog(t, eng) {
		if c.Trigger == "budget" {
			budget = append(budget, c)
		}
	}
	if len(budget) != 1 || !budget[0].Complete {
		t.Fatalf("budget cycles in the flush log = %+v, want one complete", budget)
	}
	var stages []string
	for _, st := range budget[0].Stages {
		stages = append(stages, st.Name)
	}
	if want := []string{"prepare", "build", "install", "release"}; !slices.Equal(stages, want) {
		t.Fatalf("budget cycle %d stages = %v, want %v", budget[0].ID, stages, want)
	}
	if err := budget[0].CheckTimings(); err != nil {
		t.Fatal(err)
	}
}
