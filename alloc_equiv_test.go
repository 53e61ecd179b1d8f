package kflushing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kflushing"
)

// forEachAllocPolicy runs fn once per allocator policy as the subtest
// "<name>/alloc=<policy>". The result-identity batteries run under both
// policies: a recycling bug — a pooled posting array or record wrapper
// leaking state between lives — shows up as a divergence from the heap
// run of the same seed.
func forEachAllocPolicy(t *testing.T, name string, fn func(t *testing.T, ap string)) {
	for _, ap := range []string{"pooled", "heap"} {
		ap := ap
		sub := "alloc=" + ap
		if name != "" {
			sub = name + "/" + sub
		}
		t.Run(sub, func(t *testing.T) { fn(t, ap) })
	}
}

// TestAllocPolicyEquivalence runs one seeded mixed stream — batched
// ingests, forced flushes, compactions — through two systems that differ
// only in the allocation policy (OpenAlloc) and requires byte-identical answers (IDs
// and scores) for every query shape at several points in the stream.
// The allocator is pure mechanism: where a posting array or record
// wrapper came from must be invisible to results.
func TestAllocPolicyEquivalence(t *testing.T) {
	mk := func(ap string) *kflushing.System {
		sys, err := kflushing.OpenAlloc(t.TempDir(), kflushing.Options{
			Policy:       kflushing.PolicyKFlushing,
			K:            4,
			MemoryBudget: 48 << 10,
			SyncFlush:    true,
		}, ap)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	heap := mk("heap")
	defer heap.Close()
	pooled := mk("pooled")
	defer pooled.Close()

	rng := rand.New(rand.NewSource(7919))
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
		for q := 0; q < 60; q++ {
			op := kflushing.Op(rng.Intn(3))
			nKeys := 1
			if op != kflushing.OpSingle {
				nKeys = rng.Intn(3) + 2
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
			a, err := heap.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: heap search %v %v k=%d: %v", round, keys, op, k, err)
			}
			b, err := pooled.Search(keys, op, k)
			if err != nil {
				t.Fatalf("round %d: pooled search %v %v k=%d: %v", round, keys, op, k, err)
			}
			if len(a.Items) != len(b.Items) {
				t.Fatalf("round %d: query %v %v k=%d: heap %d items, pooled %d",
					round, keys, op, k, len(a.Items), len(b.Items))
			}
			for i := range a.Items {
				if a.Items[i].MB.ID != b.Items[i].MB.ID || a.Items[i].Score != b.Items[i].Score {
					t.Fatalf("round %d: query %v %v k=%d rank %d: heap (id %d, %g), pooled (id %d, %g)",
						round, keys, op, k, i,
						a.Items[i].MB.ID, a.Items[i].Score,
						b.Items[i].MB.ID, b.Items[i].Score)
				}
			}
		}
	}

	systems := []*kflushing.System{heap, pooled}
	for round := 1; round <= 8; round++ {
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
			// Flush at the same stream positions so the pooled system's
			// recycler actually turns records over between rounds.
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

	for _, sys := range systems {
		if sys.Stats().Disk.Segments == 0 {
			t.Fatal("nothing flushed, equivalence vacuous")
		}
	}
	// The pooled system must have genuinely recycled: the point of the
	// head-to-head is that reuse happened and stayed invisible.
	slices, recs := pooled.Engine().AllocStats()
	if slices.Reuses == 0 {
		t.Fatal("pooled run never reused a posting array")
	}
	if recs.Reuses == 0 {
		t.Fatal("pooled run never reused a record wrapper")
	}
}
