package disk

import (
	"fmt"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// layoutBenchTier builds a tier from `segments` flushes of recsPerSeg
// records each, compacting inline to its fanout-bounded shape. Every
// record carries one shared key, one modular key, and one unique key, so
// sparse lookups have exactly one home segment for the Bloom filters to
// find.
func layoutBenchTier(b *testing.B, segments, recsPerSeg int) *Tier[string] {
	b.Helper()
	tier, err := Open(Config[string]{
		Dir:    b.TempDir(),
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tier.Close() })
	id := uint64(0)
	for s := 0; s < segments; s++ {
		recs := make([]FlushRecord, recsPerSeg)
		for i := range recs {
			id++
			recs[i] = fr(id, float64(id),
				"common", fmt.Sprintf("k%d", id%257), fmt.Sprintf("u%d", id))
		}
		if err := tier.Flush(recs); err != nil {
			b.Fatal(err)
		}
	}
	return tier
}

// BenchmarkMissBySegmentCount measures the memory-miss query latency as
// the number of flushed batches grows: the candidate set grows with the
// logarithmic level count, not the flush count. (The flat-layout arm
// this was first measured against is in EXPERIMENTS.md "Leveled disk
// tier"; the sub-benchmark names keep its layout= prefix.) Three probe
// shapes per point: a unique key living in exactly one segment, a key
// absent from every segment (pure Bloom-scan cost), and the shared hot
// key (early-termination path).
func BenchmarkMissBySegmentCount(b *testing.B) {
	const recsPerSeg = 100
	for _, segs := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("layout=leveled/flushes=%d", segs), func(b *testing.B) {
			tier := layoutBenchTier(b, segs, recsPerSeg)
			nrec := uint64(segs * recsPerSeg)
			b.Run("unique", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					key := fmt.Sprintf("u%d", uint64(i)%nrec+1)
					items, err := tier.Search([]string{key}, query.OpSingle, 10)
					if err != nil || len(items) != 1 {
						b.Fatalf("items=%d err=%v", len(items), err)
					}
				}
			})
			b.Run("absent", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					items, err := tier.Search([]string{"nope"}, query.OpSingle, 10)
					if err != nil || len(items) != 0 {
						b.Fatalf("items=%d err=%v", len(items), err)
					}
				}
			})
			b.Run("hot", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					items, err := tier.Search([]string{"common"}, query.OpSingle, 10)
					if err != nil || len(items) != 10 {
						b.Fatalf("items=%d err=%v", len(items), err)
					}
				}
			})
		})
	}
}
