package kflushing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kflushing"
)

// TestFlushVictimsDeterministic runs one seeded mixed stream through two
// static systems that differ only in flush mode — SyncFlush, and the
// default with its flush pipeline and background compactor — and requires
// identical answers for every query shape, identical flush counters and
// identical flush-victim journals, phase by phase. Every cycle is a
// FlushNow at a fixed point of the stream (the budget is never reached:
// a budget-triggered cycle of the pipelined system would race ingestion),
// so the victim set must be a pure function of the stream, whatever the
// flush mode and however many workers the selector fans out over; CI runs
// it at GOMAXPROCS 1, 2 and 4.
func TestFlushVictimsDeterministic(t *testing.T) {
	mk := func(syncFlush bool) *kflushing.System {
		sys, err := kflushing.Open(t.TempDir(), kflushing.Options{
			Policy:        kflushing.PolicyKFlushing,
			K:             4,
			MemoryBudget:  256 << 10,
			FlushFraction: 0.03,
			SyncFlush:     syncFlush,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	inline := mk(true)
	defer inline.Close()
	pipelined := mk(false)
	defer pipelined.Close()
	systems := []*kflushing.System{inline, pipelined}

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
			a, err := inline.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: inline search: %v", round, err)
			}
			b, err := pipelined.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: pipelined search: %v", round, err)
			}
			if len(a.Items) != len(b.Items) {
				t.Fatalf("round %d: query %v %v k=%d: inline %d items, pipelined %d",
					round, keys, op, k, len(a.Items), len(b.Items))
			}
			for i := range a.Items {
				if a.Items[i].MB.ID != b.Items[i].MB.ID || a.Items[i].Score != b.Items[i].Score {
					t.Fatalf("round %d: query %v %v k=%d rank %d: inline (id %d, %g), pipelined (id %d, %g)",
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
	sa, sb := inline.Stats(), pipelined.Stats()
	if sa.Metrics.Flushes != sb.Metrics.Flushes || sa.Metrics.FlushedBytes != sb.Metrics.FlushedBytes {
		t.Fatalf("flush counters diverged: inline %d cycles/%d bytes, pipelined %d/%d",
			sa.Metrics.Flushes, sa.Metrics.FlushedBytes, sb.Metrics.Flushes, sb.Metrics.FlushedBytes)
	}
	if sa.MemoryUsed != sb.MemoryUsed || sa.StoreRecords != sb.StoreRecords {
		t.Fatalf("memory diverged: inline %d bytes/%d records, pipelined %d/%d",
			sa.MemoryUsed, sa.StoreRecords, sb.MemoryUsed, sb.StoreRecords)
	}
	// (Segment counts are not compared: the background compactor merges
	// when it gets to it.)
	if sa.Disk.RecordsWritten != sb.Disk.RecordsWritten {
		t.Fatalf("disk diverged: inline wrote %d records, pipelined %d",
			sa.Disk.RecordsWritten, sb.Disk.RecordsWritten)
	}
	if sa.Metrics.Flushes == 0 {
		t.Fatal("no flush cycles ran; equivalence vacuous")
	}

	// Victim-set equivalence: every cycle in the flush log chose the
	// same victims, phase by phase, and every phase had work to do in
	// some cycle.
	ja, jb := inline.FlushLog(0), pipelined.FlushLog(0)
	if len(ja) != len(jb) {
		t.Fatalf("journal lengths diverged: inline %d, pipelined %d", len(ja), len(jb))
	}
	victims := map[int]int64{}
	for i := range ja {
		a, b := ja[i], jb[i]
		if a.Trigger != "manual" {
			t.Fatalf("journal event %d was triggered by %q: the stream reached the budget", i, a.Trigger)
		}
		if a.Trigger != b.Trigger || a.Target != b.Target || a.Freed != b.Freed ||
			a.MemBefore != b.MemBefore || a.MemAfter != b.MemAfter || len(a.Phases) != len(b.Phases) {
			t.Fatalf("journal event %d diverged:\ninline  %+v\npipelined %+v", i, a, b)
		}
		for p := range a.Phases {
			pa, pb := a.Phases[p], b.Phases[p]
			if pa.Phase != pb.Phase || pa.Name != pb.Name || pa.Victims != pb.Victims || pa.Freed != pb.Freed {
				t.Fatalf("journal event %d phase %d victims diverged:\ninline  %+v\npipelined %+v", i, p, pa, pb)
			}
			victims[pa.Phase] += pa.Victims
		}
	}

	for phase := 1; phase <= 3; phase++ {
		if victims[phase] == 0 {
			t.Fatalf("phase %d never evicted anything (victims by phase: %v); equivalence vacuous", phase, victims)
		}
	}
}
