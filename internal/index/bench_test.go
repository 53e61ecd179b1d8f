package index

import (
	"fmt"
	"testing"

	"kflushing/internal/store"
	"kflushing/internal/types"
)

// BenchmarkInsert measures the digestion hot path: posting insertion
// into an existing entry (temporal ranking, tail append fast path).
func BenchmarkInsert(b *testing.B) {
	for _, trackTopK := range []bool{false, true} {
		name := "plain"
		if trackTopK {
			name = "track-topk"
		}
		b.Run(name, func(b *testing.B) {
			ix, _ := newTestIndex(20, trackTopK)
			recs := make([]*store.Record, b.N)
			for i := range recs {
				recs[i] = rec(uint64(i+1), int64(i+1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Insert("hot", recs[i])
			}
		})
	}
}

// BenchmarkInsertManyKeys measures insertion with entry creation across
// a wide key space (shard and map pressure).
func BenchmarkInsertManyKeys(b *testing.B) {
	ix, _ := newTestIndex(20, false)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	recs := make([]*store.Record, b.N)
	for i := range recs {
		recs[i] = rec(uint64(i+1), int64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(keys[i&4095], recs[i])
	}
}

// BenchmarkTopK measures the query-side read of an entry's top-k.
func BenchmarkTopK(b *testing.B) {
	ix, _ := newTestIndex(20, false)
	for i := 0; i < 10_000; i++ {
		ix.Insert("hot", rec(uint64(i+1), int64(i+1)))
	}
	e := ix.Entry("hot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := e.TopK(20); len(got) != 20 {
			b.Fatal("short top-k")
		}
	}
}

// BenchmarkRemoveBeyondTopK measures Phase 1's per-entry work.
func BenchmarkRemoveBeyondTopK(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, _ := newTestIndex(20, false)
		for j := 0; j < 1000; j++ {
			ix.Insert("hot", rec(uint64(j+1), int64(j+1)))
		}
		e := ix.Entry("hot")
		b.StartTimer()
		if removed, _, _ := e.Remove(20, BeyondTopK, nil); len(removed) != 980 {
			b.Fatal("unexpected trim size")
		}
	}
}

// BenchmarkCensus measures the stats scan over a large index.
func BenchmarkCensus(b *testing.B) {
	ix, _ := newTestIndex(20, false)
	for i := 0; i < 50_000; i++ {
		ix.Insert(fmt.Sprintf("k%d", i%10_000), rec(uint64(i+1), int64(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := ix.TakeCensus(); c.Entries == 0 {
			b.Fatal("empty census")
		}
	}
}

var sinkTS types.Timestamp

// BenchmarkEntryTouch measures the per-query timestamp write (Phase 3
// bookkeeping), which must stay negligible.
func BenchmarkEntryTouch(b *testing.B) {
	ix, _ := newTestIndex(20, false)
	ix.Insert("k", rec(1, 1))
	e := ix.Entry("k")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Touch(types.Timestamp(i))
	}
	sinkTS = e.LastQueried()
}
