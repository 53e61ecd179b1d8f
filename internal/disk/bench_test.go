package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kflushing/internal/gen"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// benchTier builds a tier with several populated segments; compaction
// is off so the segment count is the one asked for.
func benchTier(b *testing.B, segments, recsPerSeg int) *Tier[string] {
	b.Helper()
	tier, err := Open(Config[string]{
		Dir:         b.TempDir(),
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
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
			recs[i] = fr(id, float64(id), fmt.Sprintf("k%d", id%257), "common")
		}
		if err := tier.Flush(recs); err != nil {
			b.Fatal(err)
		}
	}
	return tier
}

// BenchmarkFlush measures segment-write throughput.
func BenchmarkFlush(b *testing.B) {
	tier, err := Open(Config[string]{
		Dir:    b.TempDir(),
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	recs := make([]FlushRecord, 1000)
	for i := range recs {
		recs[i] = fr(uint64(i+1), float64(i+1), "a", "b")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tier.Flush(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkCodec measures encoding and decoding one record of the
// benchmark's shape (three keywords, ≈ 80 bytes of text): the per-record
// CPU that ingest (log append, flush) and a record-cache miss pay.
func BenchmarkCodec(b *testing.B) {
	rec := fr(123456, 1.7e15, "tag1a574", "tag06840", "tag00085")
	rec.MB.Text = "e quick onyx goblin jumps over a lazy dwarf while vexed zombies quietly patrol the "
	buf := appendRecord(nil, rec)
	b.Run("encode", func(b *testing.B) {
		out := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			out = appendRecord(out[:0], rec)
		}
		b.SetBytes(int64(len(out)))
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeRecord(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}

// BenchmarkSearchHot measures a miss-path query on a popular key that
// terminates early via the max-score bound.
func BenchmarkSearchHot(b *testing.B) {
	tier := benchTier(b, 16, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := tier.Search([]string{"common"}, query.OpSingle, 20)
		if err != nil || len(items) != 20 {
			b.Fatalf("items=%d err=%v", len(items), err)
		}
	}
}

// BenchmarkSearchCold measures a query on a sparse key that must visit
// every segment directory.
func BenchmarkSearchCold(b *testing.B) {
	tier := benchTier(b, 16, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tier.Search([]string{"k13"}, query.OpSingle, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchAbsent measures a key present in no segment: the Bloom
// filters should rule every segment out without a directory probe or a
// pread.
func BenchmarkSearchAbsent(b *testing.B) {
	tier := benchTier(b, 16, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := tier.Search([]string{"nowhere"}, query.OpSingle, 20)
		if err != nil || len(items) != 0 {
			b.Fatalf("items=%d err=%v", len(items), err)
		}
	}
}

// BenchmarkSearchRepeatedHotKey measures the same sparse-key query over
// and over: after the first pass the record cache serves every read.
func BenchmarkSearchRepeatedHotKey(b *testing.B) {
	tier := benchTier(b, 16, 500)
	if _, err := tier.Search([]string{"k13"}, query.OpSingle, 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tier.Search([]string{"k13"}, query.OpSingle, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchConcurrentDuplicateMiss issues the identical query from
// 8 goroutines at once, the pattern the record cache (and, one layer up,
// the engine's singleflight) is built for.
func BenchmarkSearchConcurrentDuplicateMiss(b *testing.B) {
	tier := benchTier(b, 16, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tier.Search([]string{"k13"}, query.OpSingle, 20); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkOpenDirectory measures what Open pays, per posting, to bring a
// merge-sized directory back into resident form (openSegment): the file
// read, the key section, the Bloom filter and the key index. The
// directory merges four flushes of 38 000 generator records.
func BenchmarkOpenDirectory(b *testing.B) {
	dir := b.TempDir()
	tier, err := Open(Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := gen.New(gen.DefaultConfig())
	for id := 0; id < 4*38_000; {
		recs := make([]FlushRecord, 38_000)
		for i := range recs {
			id++
			m := g.Next()
			m.ID = types.ID(id)
			recs[i] = FlushRecord{MB: m, Score: float64(m.Timestamp)}
		}
		if err := tier.Flush(recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := tier.CompactAll(); err != nil {
		b.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		b.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "lvl-*.kfs"))
	if err != nil || len(paths) != 1 {
		b.Fatalf("merged directories %v, %v", paths, err)
	}
	bs := newBlockSet(nil) // opened once here: the loops time the directory alone
	defer bs.release()
	s, err := openSegment(paths[0], bs)
	if err != nil {
		b.Fatal(err)
	}
	nposts := len(s.posts)
	s.release()
	report := func(b *testing.B, path string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nposts), "ns/posting")
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Size())/float64(nposts), "B/posting")
	}
	b.Run("format=v4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := openSegment(paths[0], bs)
			if err != nil {
				b.Fatal(err)
			}
			s.release()
		}
		report(b, paths[0])
	})
}

// BenchmarkCompact measures merging 8 segments of 500 records.
func BenchmarkCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tier := benchTier(b, 8, 500)
		b.StartTimer()
		if err := tier.CompactAll(); err != nil {
			b.Fatal(err)
		}
	}
}
