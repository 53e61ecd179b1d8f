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
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// TestFlushCompletionMatrix drives the five ways a batch's completion
// can end through the three ways a batch gets completed, on a durable
// engine, and holds every cell to the same observables: there is one
// completion routine, so who runs it must not show.
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
		inline    = "inline"    // SyncFlush engine, FlushNow
		pipelined = "pipelined" // budget cycle enqueues, the worker completes
		fallback  = "fallback"  // worker parked, queue full: budget cycle completes inline
	)
	for _, mode := range []string{inline, pipelined, fallback} {
		for _, oc := range outcomes {
			t.Run(mode+"/"+oc.name, func(t *testing.T) {
				failpoint.DisableAll()
				t.Cleanup(failpoint.DisableAll)
				cfg := reclaimConfig(t.TempDir(), 1<<30, mode == inline, alloc.PolicyPooled)
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
					waitPipelineIdle(t, eng)
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

				// Every cycle below evicts all of memory (the budget dwarfs
				// what is loaded), so each completes exactly one batch.
				var batches int64
				segments := 0
				if mode == fallback {
					// Park the worker: it needs the gate to conclude its
					// first batch. Once that batch's dead have settled it
					// is past both failpoint sites and the write, so what
					// is armed below can only hit the batch under test.
					eng.flushMu.Lock()
					for i := 0; i <= pipelineDepth; i++ {
						load(8)
						budgetCycleLocked(t, eng)
						batches++
						if i == 0 {
							waitFor(t, "the worker to take the first batch", func() bool {
								return eng.recycler.Stats().Frees > 0
							})
							segments = 1
						}
					}
				}
				if oc.site != "" {
					mustEnable(t, oc.site, oc.spec)
				}
				const n = 20
				load(n)
				var cycleErr error
				switch mode {
				case inline:
					_, cycleErr = eng.FlushNow()
				case pipelined:
					budgetCycle(t, eng)
					waitPipelineIdle(t, eng)
				case fallback:
					_, cycleErr = eng.flushCycle(blackbox.TriggerBudget)
				}
				batches++
				if (cycleErr != nil) != (oc.fails && mode != pipelined) {
					t.Fatalf("cycle error = %v", cycleErr)
				}
				wantEnq, wantFall := int64(0), int64(0)
				switch mode {
				case pipelined:
					wantEnq = 1
				case fallback:
					wantEnq, wantFall = pipelineDepth+1, 1
				}
				if enq, fall := eng.reg.PipelineEnqueued.Load(), eng.reg.PipelineFallbacks.Load(); enq != wantEnq || fall != wantFall {
					t.Fatalf("enqueued=%d fallbacks=%d, want %d and %d", enq, fall, wantEnq, wantFall)
				}
				if hits := failpoint.Hits(oc.site); hits < oc.minHits {
					t.Fatalf("%s evaluated %d times, want >= %d", oc.site, hits, oc.minHits)
				}

				// The batch is restored iff its segment never became
				// durable; a post-write failure degrades without restoring.
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
				if mode == fallback {
					eng.flushMu.Unlock()
				}
				checkQuiescent()

				// Each completed batch observed the release stage once, and
				// no cycle books more inline stage time than it took
				// (flushLog checks). The cycle under test — the last one
				// begun so far — is one record carrying the stages that
				// ran under its own ID: all inline, or, pipelined, prepare
				// inline and the completion on the worker.
				if runs := eng.reg.Snap().Stages[metrics.StageRelease].Runs; runs != batches {
					t.Fatalf("release stage observed %d times over %d completed batches", runs, batches)
				}
				want := []blackbox.FlushStage{{Name: "prepare"}}
				if oc.wrote {
					want = append(want, blackbox.FlushStage{Name: "build"}, blackbox.FlushStage{Name: "install"})
				}
				want = append(want, blackbox.FlushStage{Name: "release"})
				for i := range want[1:] {
					want[1+i].Worker = mode == pipelined
				}
				log := flushLog(t, eng)
				for _, c := range log {
					if !c.Complete {
						t.Fatalf("cycle %d incomplete with the pipeline idle: %+v", c.ID, c)
					}
				}
				cycle := log[len(log)-1]
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

				// The fault is gone: a readiness probe (or, in fallback
				// mode, the fillers' durable installs) restores write
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
	cfg := reclaimConfig(t.TempDir(), 1<<30, false, alloc.PolicyPooled)
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
		recs = append(recs, disk.FlushRecord{MB: rec.MB, Score: rec.Score, LogSeq: rec.LogSeq, LogOrd: rec.LogOrd})
		if id < 10 {
			dead = append(dead, rec)
		}
	}
	late := eng.store.Get(10)

	mustEnable(t, failpoint.DiskSegmentDirWrite, "sleep(400)")
	eng.flushMu.Lock()
	if !eng.pipe.tryEnqueue(flushBatch{recs: recs, dead: dead}) {
		t.Fatal("batch N not enqueued")
	}
	// Cycle N+1: record 10 dies, nothing to write.
	eng.conclude(eng.persist(flushBatch{dead: []*store.Record{late}}, true))
	eng.flushMu.Unlock()
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
