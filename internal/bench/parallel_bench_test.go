// Microbenchmarks for this package's two throughput levers: batched
// ingestion (WAL group commit amortization) and shard-parallel flush
// execution. Results are recorded in EXPERIMENTS.md "Early
// micro-benchmarks".
package bench

import (
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/core"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
	"kflushing/internal/policy"
	"kflushing/internal/types"
)

// benchEngine builds a keyword engine for throughput measurement.
// workers configures kFlushing's flush parallelism (0 = auto, 1 =
// forced sequential); durable turns the write-ahead log on.
func benchEngine(b *testing.B, budget int64, durable bool, workers int) *engine.Engine[string] {
	b.Helper()
	eng, err := engine.New(engine.Config[string]{
		K:            20,
		MemoryBudget: budget,
		Attr:         attr.Keyword(),
		DiskDir:      b.TempDir(),
		Durable:      durable,
		Policy:       policy.Choice[string]{Policy: core.New(core.WithParallelism[string](workers)), TrackOverK: true},
		SyncFlush:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

func benchRecords(n int) []*types.Microblog {
	cfg := gen.DefaultConfig()
	cfg.Vocab = 20_000
	cfg.GeoFraction = 0
	g := gen.New(cfg)
	out := make([]*types.Microblog, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// BenchmarkIngestBatch measures durable digestion throughput by batch
// size. batch=1 is the per-record path (Ingest is a batch of one), so
// the larger sizes isolate what WAL group commit and per-batch policy
// bookkeeping buy. Budget is large enough that flushing stays out of
// the loop; the flush cost is measured by BenchmarkFlushCycle.
func BenchmarkIngestBatch(b *testing.B) {
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			eng := benchEngine(b, 1<<40, true, 1)
			recs := benchRecords(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				end := i + size
				if end > b.N {
					end = b.N
				}
				if _, err := eng.IngestBatch(recs[i:end]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlushCycle measures one kFlushing flush cycle, sequential
// (workers=1) versus parallel Phase 1 trimming and victim scanning
// (workers=4; capped by GOMAXPROCS at runtime, so single-core machines
// measure the coordination overhead rather than a speedup). The engine
// is refilled outside the timer whenever memory runs low.
func BenchmarkFlushCycle(b *testing.B) {
	const (
		budget = 8 << 20
		target = budget / 10 // engine default FlushFraction
	)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := benchEngine(b, budget, false, bc.workers)
			cfg := gen.DefaultConfig()
			cfg.Vocab = 20_000
			cfg.GeoFraction = 0
			g := gen.New(cfg)
			refill := func() {
				batch := make([]*types.Microblog, 256)
				for eng.Mem().Used() < budget*9/10 {
					for i := range batch {
						batch[i] = g.Next()
					}
					if _, err := eng.IngestBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			refill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eng.Mem().Used() < 2*target {
					b.StopTimer()
					refill()
					b.StartTimer()
				}
				if _, err := eng.FlushNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
