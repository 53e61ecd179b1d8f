// Benchmarks regenerating the paper's evaluation at reduced (quick)
// scale — one per figure — plus microbenchmarks for the hot paths and
// the design-choice ablations listed in DESIGN.md §5. The full-scale
// figures are produced by cmd/kflush-bench; these benches make every
// experiment runnable through `go test -bench`.
package kflushing_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing"
	"kflushing/internal/attr"
	"kflushing/internal/bench"
	"kflushing/internal/core"
	"kflushing/internal/gen"
	"kflushing/internal/index"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// benchStream pre-generates records so generation cost stays out of the
// measured loop.
func benchStream(n int) []*kflushing.Microblog {
	return benchStreamVocab(n, 20_000)
}

// benchStreamVocab is benchStream with a chosen vocabulary size. The
// allocator benchmarks use a small hot vocabulary so entries stay
// over-k and flush cycles are Phase 1 trims — the steady high-rate
// regime the slab pool and recycler target — rather than Phase 2
// victim-selection storms over a long keyword tail.
func benchStreamVocab(n, vocab int) []*kflushing.Microblog {
	cfg := gen.DefaultConfig()
	cfg.Vocab = vocab
	cfg.GeoFraction = 0
	g := gen.New(cfg)
	out := make([]*kflushing.Microblog, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// BenchmarkIngest measures digestion throughput per policy with a small
// budget so flushing runs inside the loop (the paper's Figure 10(b)
// regime, single-threaded).
func BenchmarkIngest(b *testing.B) {
	for _, pol := range []kflushing.PolicyKind{
		kflushing.PolicyFIFO, kflushing.PolicyKFlushing,
		kflushing.PolicyKFlushingMK, kflushing.PolicyLRU,
	} {
		b.Run(string(pol), func(b *testing.B) {
			sys, err := kflushing.Open(b.TempDir(), kflushing.Options{
				Policy:       pol,
				MemoryBudget: 4 << 20,
				SyncFlush:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			recs := benchStream(b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Ingest(recs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestPipeline measures sustained ingest throughput against
// where a flush cycle runs: in the background (the default), a
// budget-triggered cycle, disk writes included, runs on a goroutine of
// its own and ingestion carries on beside it; under SyncFlush every
// cycle runs inline on the ingesting goroutine.
func BenchmarkIngestPipeline(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"flush=sync", true}, {"flush=background", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := kflushing.Open(b.TempDir(), kflushing.Options{
				Policy:       kflushing.PolicyKFlushing,
				MemoryBudget: 4 << 20,
				SyncFlush:    mode.sync,
			})
			if err != nil {
				b.Fatal(err)
			}
			recs := benchStream(b.N)
			const batch = 64
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				end := i + batch
				if end > b.N {
					end = b.N
				}
				if _, err := sys.IngestBatch(recs[i:end]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Gate-held time per budget-triggered cycle: every stage runs
			// under the flush gate, so this is how long the next cycle —
			// and a FlushNow — waits behind one.
			var gate int64
			var cycles int
			for _, ev := range sys.FlushLog(0) {
				if ev.Trigger != "budget" {
					continue
				}
				cycles++
				gate += ev.Nanos
			}
			if cycles > 0 {
				b.ReportMetric(float64(gate)/float64(cycles), "gate-ns/flush")
			}
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkIngestBatchAlloc compares the allocator policies on the
// batched digestion path (batch=16, flushing inside the loop). Run with
// -benchmem: the headline is allocs/op — pooled must stay at least 2x
// under heap (EXPERIMENTS.md "Allocation-flat ingestion" records the
// published run).
// The record stream is pre-generated so the measured numbers are the
// engine's own allocations, not the workload generator's.
func BenchmarkIngestBatchAlloc(b *testing.B) {
	for _, ap := range []string{"heap", "pooled"} {
		b.Run("alloc="+ap, func(b *testing.B) {
			// Compaction off: inline merges re-decode every stored
			// record, and that storm — identical under both policies
			// — is ~2/3 of the allocation budget and would bury the
			// allocator comparison. Flushes still build and write a
			// segment per cycle. BenchmarkSustainedIngestUnderQueries
			// keeps the default tier for the end-to-end picture.
			sys, err := kflushing.OpenNeverCompact(b.TempDir(), kflushing.Options{
				Policy:       kflushing.PolicyKFlushing,
				MemoryBudget: 4 << 20,
				SyncFlush:    true,
			}, ap)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			recs := benchStreamVocab(b.N, 512)
			const batch = 16
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				end := i + batch
				if end > b.N {
					end = b.N
				}
				if _, err := sys.IngestBatch(recs[i:end]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// allocs/op prints truncated to an integer; the published
			// heap-vs-pooled ratio uses this exact figure.
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/op-exact")
		})
	}
}

// BenchmarkSustainedIngestUnderQueries is the paper's Figure 10(b)
// regime with the allocator as the variable: one goroutine ingests
// batches at full speed while concurrent searchers hammer hot keywords,
// with background flushing triggered by the budget the whole time.
// Reported per policy: ns/op (ingest throughput), allocs/op (every
// goroutine's allocations — honest, the searchers are part of the
// steady state), and GC activity over the run via runtime.ReadMemStats
// (collections and total stop-the-world pause, as per-op metrics).
func BenchmarkSustainedIngestUnderQueries(b *testing.B) {
	for _, ap := range []string{"heap", "pooled"} {
		b.Run("alloc="+ap, func(b *testing.B) {
			sys, err := kflushing.OpenAlloc(b.TempDir(), kflushing.Options{
				Policy:       kflushing.PolicyKFlushing,
				MemoryBudget: 4 << 20,
			}, ap)
			if err != nil {
				b.Fatal(err)
			}
			recs := benchStream(b.N)
			// Hot keywords: the generator's Zipf head, always k-filled
			// after warm-up, so searches are memory hits that race the
			// ingest/flush path over shared entries.
			var stop atomic.Bool
			var qwg sync.WaitGroup
			const searchers = 2
			for g := 0; g < searchers; g++ {
				qwg.Add(1)
				go func(g int) {
					defer qwg.Done()
					for i := 0; !stop.Load(); i++ {
						kw := fmt.Sprintf("tag%05x", i%8)
						if _, err := sys.SearchKeyword(kw, 20); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const batch = 16
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				end := i + batch
				if end > b.N {
					end = b.N
				}
				if _, err := sys.IngestBatch(recs[i:end]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			stop.Store(true)
			qwg.Wait()
			b.ReportMetric(float64(after.NumGC-before.NumGC)*1e6/float64(b.N), "gc-per-Mop")
			b.ReportMetric(float64(after.PauseTotalNs-before.PauseTotalNs)/float64(b.N), "gc-pause-ns/op")
			if err := sys.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSearch measures query latency for memory hits and misses.
func BenchmarkSearch(b *testing.B) {
	sys, err := kflushing.Open(b.TempDir(), kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		MemoryBudget: 8 << 20,
		SyncFlush:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, mb := range benchStream(120_000) {
		if _, err := sys.Ingest(mb); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.SearchKeyword("tag00000", 20)
			if err != nil {
				b.Fatal(err)
			}
			if !res.MemoryHit {
				b.Fatal("expected hit on hottest keyword")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Deep-tail keywords are never k-filled: disk path.
			kw := fmt.Sprintf("tag%05x", 19_000+i%500)
			if _, err := sys.SearchKeyword(kw, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// experimentBench runs one harness experiment per iteration at quick
// scale; the table row count is reported as a sanity metric.
func experimentBench(b *testing.B, run func(bench.Scale) *bench.Table) {
	s := bench.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := run(s)
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkSnapshot regenerates the Section III-A snapshot (Figure 1).
func BenchmarkSnapshot(b *testing.B) { experimentBench(b, bench.Snapshot) }

// BenchmarkFig5 regenerates Figure 5 (memory consumption behaviour).
func BenchmarkFig5(b *testing.B) { experimentBench(b, bench.Fig5) }

// BenchmarkFig7 regenerates Figure 7(a,b,c) (k-filled keywords).
func BenchmarkFig7(b *testing.B) {
	b.Run("a_vs_k", func(b *testing.B) { experimentBench(b, bench.Fig7a) })
	b.Run("b_vs_flushbudget", func(b *testing.B) { experimentBench(b, bench.Fig7b) })
	b.Run("c_vs_memory", func(b *testing.B) { experimentBench(b, bench.Fig7c) })
}

// BenchmarkFig8 regenerates Figure 8 (hit ratio, correlated load).
func BenchmarkFig8(b *testing.B) {
	s := bench.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tabs := bench.Fig8(s); len(tabs) != 3 {
			b.Fatal("fig8 must produce three sub-figures")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (hit ratio, uniform load).
func BenchmarkFig9(b *testing.B) {
	s := bench.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tabs := bench.Fig9(s); len(tabs) != 3 {
			b.Fatal("fig9 must produce three sub-figures")
		}
	}
}

// BenchmarkFig10a regenerates Figure 10(a) (policy memory overhead).
func BenchmarkFig10a(b *testing.B) { experimentBench(b, bench.Fig10a) }

// BenchmarkFig10b regenerates Figure 10(b) (digestion rate under
// concurrent queries and background flushing).
func BenchmarkFig10b(b *testing.B) { experimentBench(b, bench.Fig10b) }

// BenchmarkFig11 regenerates Figure 11 (spatial attribute).
func BenchmarkFig11(b *testing.B) {
	b.Run("a_kfilled_tiles", func(b *testing.B) { experimentBench(b, bench.Fig11a) })
	b.Run("b_hit_ratio", func(b *testing.B) { experimentBench(b, bench.Fig11b) })
}

// BenchmarkFig12 regenerates Figure 12 (user attribute).
func BenchmarkFig12(b *testing.B) {
	b.Run("a_kfilled_users", func(b *testing.B) { experimentBench(b, bench.Fig12a) })
	b.Run("b_hit_ratio", func(b *testing.B) { experimentBench(b, bench.Fig12b) })
}

// BenchmarkAblationPhaseCap quantifies what each kFlushing phase
// contributes (DESIGN.md ablation 4).
func BenchmarkAblationPhaseCap(b *testing.B) { experimentBench(b, bench.AblationPhases) }

// BenchmarkLatency regenerates the query-latency table validating that
// kFlushing leaves in-memory query performance intact.
func BenchmarkLatency(b *testing.B) { experimentBench(b, bench.Latency) }

// selectorIndex builds an index with n single-posting entries with
// distinct arrival times, the Phase 2 candidate population.
func selectorIndex(n int) *index.Index[string] {
	ix := index.New(index.Config[string]{
		Hash:       attr.HashString,
		KeyLen:     attr.KeywordLen,
		K:          20,
		TrackOverK: true,
	})
	for i := 0; i < n; i++ {
		mb := &types.Microblog{
			ID:        types.ID(i + 1),
			Timestamp: types.Timestamp((i*2654435761)%1_000_000 + 1),
			Keywords:  []string{fmt.Sprintf("k%d", i)},
		}
		ix.Insert(mb.Keywords[0], store.NewRecord(mb, float64(mb.Timestamp)))
	}
	return ix
}

// BenchmarkAblationPhase2Select compares the paper's O(n) single-pass
// heap victim selection against the O(n log n) sort strawman
// (DESIGN.md ablation 1) on a 100K-entry index.
func BenchmarkAblationPhase2Select(b *testing.B) {
	ix := selectorIndex(100_000)
	classify := func(e *index.Entry[string]) (int, int64, bool) {
		if e.Len() >= ix.K() {
			return 0, 0, false
		}
		return 0, int64(e.LastArrival()), true
	}
	const target = 1 << 20
	b.Run("heap", func(b *testing.B) {
		sel := core.HeapSelector[string]{}
		for i := 0; i < b.N; i++ {
			if v := sel.Select(ix, target, classify); len(v) == 0 {
				b.Fatal("no victims")
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		sel := core.SortSelector[string]{}
		for i := 0; i < b.N; i++ {
			if v := sel.Select(ix, target, classify); len(v) == 0 {
				b.Fatal("no victims")
			}
		}
	})
}

// BenchmarkAblationPhase1Scan compares finding over-k entries through
// the maintained list L against a full index scan (DESIGN.md
// ablation 2): L makes Phase 1 independent of the key-space size.
func BenchmarkAblationPhase1Scan(b *testing.B) {
	ix := selectorIndex(100_000)
	// Make 50 entries over-k.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		for j := 0; j < 25; j++ {
			mb := &types.Microblog{
				ID:        types.ID(1_000_000 + i*100 + j),
				Timestamp: types.Timestamp(2_000_000 + i*100 + j),
				Keywords:  []string{key},
			}
			ix.Insert(key, store.NewRecord(mb, float64(mb.Timestamp)))
		}
	}
	keepAll := func(*store.Record) bool { return true }
	b.Run("overk-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := ix.TakeOverK()
			if len(l) != 50 {
				b.Fatalf("L has %d entries, want 50", len(l))
			}
			// A trim that keeps every posting puts the entry back on L.
			for _, e := range l {
				e.Remove(ix.K(), index.BeyondTopK, keepAll)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := 0
			ix.Range(func(e *index.Entry[string]) bool {
				if e.BeyondTopK(ix.K()) > 0 {
					found++
				}
				return true
			})
			if found != 50 {
				b.Fatalf("scan found %d, want 50", found)
			}
		}
	})
}
