package kflushing_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kflushing"
)

// TestLayoutEquivalence runs one seeded mixed workload through three
// systems that differ only in how the disk tier ends up organized — an
// uncompacted reference where every flush stays its own L0 segment
// (the naive list the leveled tier replaced), the leveled tier
// compacting inline, and the leveled tier behind the asynchronous flush
// pipeline — and requires byte-identical top-k answers (IDs and scores)
// for every query shape.
// kFlushing is an exact policy: answers equal memory ∪ disk no matter
// when flushes, compactions, or pipeline installs happen, so the layout
// must be invisible to queries.
func TestLayoutEquivalence(t *testing.T) {
	forEachAllocPolicy(t, "", func(t *testing.T, ap string) { runLayoutEquivalence(t, ap) })
}

// runLayoutEquivalence is the TestLayoutEquivalence body, parameterized
// over the allocator policy so the reference/leveled/pipelined identity also
// holds with pooled posting arrays and recycled record wrappers.
func runLayoutEquivalence(t *testing.T, ap string) {
	base := kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		K:            4,
		MemoryBudget: 48 << 10,
		SyncFlush:    true,
	}
	pipeOpt := base
	pipeOpt.SyncFlush = false

	ref, err := kflushing.OpenNeverCompact(t.TempDir(), base, ap)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	leveled, err := kflushing.OpenLevelFanout(t.TempDir(), base, 3, ap)
	if err != nil {
		t.Fatal(err)
	}
	defer leveled.Close()
	piped, err := kflushing.OpenAlloc(t.TempDir(), pipeOpt, ap)
	if err != nil {
		t.Fatal(err)
	}
	defer piped.Close()
	systems := []struct {
		name string
		sys  *kflushing.System
	}{{"reference", ref}, {"leveled", leveled}, {"pipelined", piped}}

	rng := rand.New(rand.NewSource(20160516)) // the paper's conference date
	const vocabSize = 30
	kw := func(i int) string { return fmt.Sprintf("w%d", i) }
	mkBatch := func(ts *int, n int) []*kflushing.Microblog {
		batch := make([]*kflushing.Microblog, 0, n)
		for j := 0; j < n; j++ {
			*ts++
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
				Timestamp: kflushing.Timestamp(*ts),
				Keywords:  kws,
				Text:      "t",
			})
		}
		return batch
	}
	// drainPipeline waits for the asynchronous system's queued batches to
	// install so a comparison sees its complete disk state.
	drainPipeline := func() {
		deadline := time.Now().Add(10 * time.Second)
		for piped.DiskHealth().PipelineDepth != 0 {
			if time.Now().After(deadline) {
				t.Fatal("flush pipeline never drained")
			}
			time.Sleep(time.Millisecond)
		}
	}
	compare := func(round int) {
		drainPipeline()
		for q := 0; q < 60; q++ {
			op := kflushing.Op(rng.Intn(3))
			nKeys := 1
			if op != kflushing.OpSingle {
				nKeys = rng.Intn(4) + 2
			}
			seen := map[string]bool{}
			var keys []string
			for len(keys) < nKeys {
				w := kw(rng.Intn(vocabSize + 3)) // some keys never ingested
				if !seen[w] {
					seen[w] = true
					keys = append(keys, w)
				}
			}
			k := []int{1, 2, 4, 7, 20, 500}[rng.Intn(6)]
			want, err := ref.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: reference search %v %v k=%d: %v", round, keys, op, k, err)
			}
			for _, s := range systems[1:] {
				got, err := s.sys.Search(keys, op, k)
				if err != nil {
					t.Fatalf("round %d: %s search %v %v k=%d: %v", round, s.name, keys, op, k, err)
				}
				if len(got.Items) != len(want.Items) {
					t.Fatalf("round %d: query %v %v k=%d: reference %d items, %s %d",
						round, keys, op, k, len(want.Items), s.name, len(got.Items))
				}
				for i := range want.Items {
					if got.Items[i].MB.ID != want.Items[i].MB.ID || got.Items[i].Score != want.Items[i].Score {
						t.Fatalf("round %d: query %v %v k=%d rank %d: reference (id %d, %g), %s (id %d, %g)",
							round, keys, op, k, i,
							want.Items[i].MB.ID, want.Items[i].Score,
							s.name, got.Items[i].MB.ID, got.Items[i].Score)
					}
				}
			}
		}
	}

	ts := 0
	for round := 1; round <= 8; round++ {
		for b := 0; b < 20; b++ {
			batch := mkBatch(&ts, rng.Intn(12)+1)
			for _, s := range systems {
				clones := make([]*kflushing.Microblog, len(batch))
				for i, mb := range batch {
					clones[i] = mb.Clone()
				}
				ids, err := s.sys.IngestBatch(clones)
				if err != nil {
					t.Fatalf("round %d: %s ingest: %v", round, s.name, err)
				}
				for _, id := range ids {
					if id == 0 {
						t.Fatalf("round %d: %s skipped a keyword-bearing record", round, s.name)
					}
				}
			}
			// Flush all three at the same stream positions so the tiers see
			// identical segment contents.
			if b%5 == 4 {
				for _, s := range systems {
					if _, err := s.sys.FlushNow(); err != nil {
						t.Fatalf("round %d: %s flush: %v", round, s.name, err)
					}
				}
			}
		}
		// Compaction reshapes the leveled tiers mid-stream; answers must
		// not move. Every other round squashes completely.
		if err := leveled.CompactNow(); err != nil {
			t.Fatalf("round %d: CompactNow: %v", round, err)
		}
		if round%2 == 0 {
			if err := piped.CompactAll(); err != nil {
				t.Fatalf("round %d: CompactAll: %v", round, err)
			}
		}
		compare(round)
	}

	for _, s := range systems {
		if s.sys.Stats().Disk.Segments == 0 {
			t.Fatalf("%s: nothing flushed, equivalence vacuous", s.name)
		}
	}
	// The tiers really did diverge structurally while agreeing on
	// answers: the leveled system must report multiple levels by now, the
	// reference one flat pile of L0 segments that was never merged.
	if h := leveled.DiskHealth(); h.Layout != "leveled" || len(h.Levels) < 2 {
		t.Fatalf("leveled system never built levels: %+v", h)
	}
	if st, h := ref.Stats().Disk, ref.DiskHealth(); st.Compactions != 0 || len(h.Levels) != 1 || h.Levels[0].Segments != st.Segments {
		t.Fatalf("reference system compacted: %d compactions, levels %+v", st.Compactions, h.Levels)
	}
}
