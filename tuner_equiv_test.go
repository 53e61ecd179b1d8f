package kflushing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kflushing"
)

// clampedTunerLimits pins every knob at the given static configuration,
// the mode the tuner documents as provably equivalent to running
// without it. Interval 1 makes every ingest batch due for a tick, so
// the controller evaluates constantly and equivalence is not vacuous.
func clampedTunerLimits(flushFrac float64, cacheBytes int64) kflushing.TunerLimits {
	return kflushing.TunerLimits{
		Interval:             1,
		MinFlushFraction:     flushFrac,
		MaxFlushFraction:     flushFrac,
		MinWatermarkFraction: 1.0,
		MaxWatermarkFraction: 1.0,
		MinCacheBytes:        cacheBytes,
		MaxCacheBytes:        cacheBytes,
	}
}

// TestTunerClampedEquivalence runs one seeded mixed stream through
// three systems — tuner off, tuner on with every knob clamped to the
// static values, and the plain static baseline — and requires
// byte-identical answers for every query shape, identical flush
// counters, and identical flush-victim journals. This is satellite 1 of
// the adaptive-memory PR: enabling the controller without widening its
// bounds must be invisible down to the individual flush decision.
func TestTunerClampedEquivalence(t *testing.T) {
	const (
		budget     = 48 << 10
		flushFrac  = 0.1
		cacheBytes = 8 << 20 // the disk tier's default budget
	)
	mk := func(adaptive bool) *kflushing.System {
		opt := kflushing.Options{
			Policy:        kflushing.PolicyKFlushing,
			K:             4,
			MemoryBudget:  budget,
			FlushFraction: flushFrac,
			SyncFlush:     true,
		}
		if adaptive {
			opt.AdaptiveMemory = true
			opt.Tuner = clampedTunerLimits(flushFrac, cacheBytes)
		}
		sys, err := kflushing.Open(t.TempDir(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	static := mk(false)
	defer static.Close()
	clamped := mk(true)
	defer clamped.Close()
	systems := []*kflushing.System{static, clamped}

	rng := rand.New(rand.NewSource(1409))
	const vocabSize = 30
	kw := func(i int) string { return fmt.Sprintf("w%d", i) }
	ts := 0
	mkBatch := func(n int) []*kflushing.Microblog {
		batch := make([]*kflushing.Microblog, 0, n)
		for j := 0; j < n; j++ {
			ts++
			nk := rng.Intn(3) + 1
			seen := map[string]bool{}
			var kws []string
			for len(kws) < nk {
				w := kw(rng.Intn(vocabSize))
				if !seen[w] {
					seen[w] = true
					kws = append(kws, w)
				}
			}
			batch = append(batch, &kflushing.Microblog{
				Timestamp: kflushing.Timestamp(ts),
				Keywords:  kws,
				Text:      "t",
			})
		}
		return batch
	}
	compare := func(round int) {
		for q := 0; q < 40; q++ {
			op := kflushing.Op(rng.Intn(3))
			nKeys := 1
			if op != kflushing.OpSingle {
				nKeys = rng.Intn(3) + 2
			}
			seen := map[string]bool{}
			var keys []string
			for len(keys) < nKeys {
				w := kw(rng.Intn(vocabSize + 3))
				if !seen[w] {
					seen[w] = true
					keys = append(keys, w)
				}
			}
			k := []int{1, 2, 4, 7, 20, 500}[rng.Intn(6)]
			a, err := static.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: static search: %v", round, err)
			}
			b, err := clamped.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: clamped search: %v", round, err)
			}
			if len(a.Items) != len(b.Items) {
				t.Fatalf("round %d: query %v %v k=%d: static %d items, clamped %d",
					round, keys, op, k, len(a.Items), len(b.Items))
			}
			for i := range a.Items {
				if a.Items[i].MB.ID != b.Items[i].MB.ID || a.Items[i].Score != b.Items[i].Score {
					t.Fatalf("round %d: query %v %v k=%d rank %d: static (id %d, %g), clamped (id %d, %g)",
						round, keys, op, k, i,
						a.Items[i].MB.ID, a.Items[i].Score,
						b.Items[i].MB.ID, b.Items[i].Score)
				}
			}
		}
	}

	for round := 1; round <= 6; round++ {
		for b := 0; b < 20; b++ {
			batch := mkBatch(rng.Intn(12) + 1)
			for _, sys := range systems {
				clones := make([]*kflushing.Microblog, len(batch))
				for i, mb := range batch {
					clones[i] = mb.Clone()
				}
				if _, err := sys.IngestBatch(clones); err != nil {
					t.Fatalf("round %d: ingest: %v", round, err)
				}
			}
			if b%5 == 4 {
				for _, sys := range systems {
					if _, err := sys.FlushNow(); err != nil {
						t.Fatalf("round %d: flush: %v", round, err)
					}
				}
			}
		}
		if round%3 == 0 {
			for _, sys := range systems {
				if err := sys.CompactNow(); err != nil {
					t.Fatalf("round %d: compact: %v", round, err)
				}
			}
		}
		compare(round)
	}

	// Aggregate equivalence: the same flush cycles freed the same bytes
	// and left the same residents in memory and on disk.
	sa, sb := static.Stats(), clamped.Stats()
	if sa.Metrics.Flushes != sb.Metrics.Flushes || sa.Metrics.FlushedBytes != sb.Metrics.FlushedBytes {
		t.Fatalf("flush counters diverged: static %d cycles/%d bytes, clamped %d/%d",
			sa.Metrics.Flushes, sa.Metrics.FlushedBytes, sb.Metrics.Flushes, sb.Metrics.FlushedBytes)
	}
	if sa.MemoryUsed != sb.MemoryUsed || sa.StoreRecords != sb.StoreRecords {
		t.Fatalf("memory diverged: static %d bytes/%d records, clamped %d/%d",
			sa.MemoryUsed, sa.StoreRecords, sb.MemoryUsed, sb.StoreRecords)
	}
	if sa.Disk.Segments != sb.Disk.Segments || sa.Disk.RecordsWritten != sb.Disk.RecordsWritten {
		t.Fatalf("disk diverged: static %d segments/%d records, clamped %d/%d",
			sa.Disk.Segments, sa.Disk.RecordsWritten, sb.Disk.Segments, sb.Disk.RecordsWritten)
	}
	if sa.Metrics.Flushes == 0 {
		t.Fatal("no flush cycles ran; equivalence vacuous")
	}

	// Victim-set equivalence: every cycle in the flush log chose the
	// same victims, phase by phase. The clamped run's flight recorder
	// must also hold no tuner_adjust event — a pinned controller never
	// emits a change.
	for _, ev := range clamped.BlackboxEvents() {
		if ev.Event == "tuner_adjust" {
			t.Fatalf("clamped run recorded a tuner adjustment: %+v", ev)
		}
	}
	ja, jb := static.FlushLog(0), clamped.FlushLog(0)
	if len(ja) != len(jb) {
		t.Fatalf("journal lengths diverged: static %d, clamped %d", len(ja), len(jb))
	}
	for i := range ja {
		a, b := ja[i], jb[i]
		if a.Trigger != b.Trigger || a.Target != b.Target || a.Freed != b.Freed ||
			a.MemBefore != b.MemBefore || a.MemAfter != b.MemAfter || len(a.Phases) != len(b.Phases) {
			t.Fatalf("journal event %d diverged:\nstatic  %+v\nclamped %+v", i, a, b)
		}
		for p := range a.Phases {
			pa, pb := a.Phases[p], b.Phases[p]
			if pa.Phase != pb.Phase || pa.Name != pb.Name || pa.Victims != pb.Victims || pa.Freed != pb.Freed {
				t.Fatalf("journal event %d phase %d victims diverged:\nstatic  %+v\nclamped %+v", i, p, pa, pb)
			}
		}
	}

	// The clamped controller genuinely ran: it ticked, it just never
	// changed anything.
	st, ok := clamped.TunerState()
	if !ok {
		t.Fatal("clamped system reports tuner off")
	}
	if st.Ticks == 0 {
		t.Fatal("clamped tuner never ticked; equivalence vacuous")
	}
	if st.Adjusts != 0 {
		t.Fatalf("clamped tuner applied %d adjustments", st.Adjusts)
	}
	if _, ok := static.TunerState(); ok {
		t.Fatal("static system reports tuner on")
	}
}
