// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation (Section V). Each experiment builds engines
// for the policies under test, drives them with the synthetic stream and
// a query workload to a steady state (memory full, multiple flushes
// behind us — the paper's measurement regime), then reports the figure's
// metric. DESIGN.md carries the experiment index; EXPERIMENTS.md the
// measured-vs-paper comparison.
package bench

import (
	"os"
	"time"

	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
	"kflushing/internal/index"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/workload"
)

// Policy names accepted by RunConfig.
const (
	PolFIFO        = core.NameFIFO
	PolLRU         = core.NameLRU
	PolKFlushing   = core.NameKFlushing
	PolKFlushingMK = core.NameKFlushingMK
)

// AllPolicies lists the four evaluated policies in the paper's
// presentation order.
var AllPolicies = []string{PolFIFO, PolKFlushing, PolKFlushingMK, PolLRU}

// RunConfig describes one steady-state measurement run.
type RunConfig struct {
	// Policy is one of the Pol* names.
	Policy string
	// K is the top-k threshold (paper default 20).
	K int
	// Budget is the modeled memory budget in bytes.
	Budget int64
	// FlushFrac is the flushing budget B (paper default 0.10).
	FlushFrac float64
	// Stream configures the synthetic microblog stream.
	Stream gen.Config
	// Correlated selects the correlated workload; false = uniform.
	Correlated bool
	// NoQueries disables the query stream entirely (census-only runs
	// still touch entries via ingestion).
	NoQueries bool
	// WarmFlushes is how many flushes must complete before measuring.
	WarmFlushes int
	// MaxWarmIngest caps warm-up ingestion (safety bound).
	MaxWarmIngest int
	// MeasureQueries is the number of measured queries.
	MeasureQueries int
	// QueriesPerIngest interleaves this many queries per ingested
	// record during the measurement phase.
	QueriesPerIngest int
	// MaxPhase caps kFlushing phases (ablation); 0 means all.
	MaxPhase int
	// SortSelector switches kFlushing's Phase 2/3 victim selection to
	// the O(n log n) sort baseline (ablation).
	SortSelector bool
	// DiskDir overrides the disk tier directory; empty uses a temp
	// dir removed after the run.
	DiskDir string
	// Seed offsets all sampling.
	Seed int64
}

// Defaults fills unset fields with the scaled-down equivalents of the
// paper's defaults (k=20, B=10%, 30 GB budget → 32 MiB here).
func (rc RunConfig) Defaults() RunConfig {
	if rc.K == 0 {
		rc.K = 20
	}
	if rc.Budget == 0 {
		rc.Budget = 32 << 20
	}
	if rc.FlushFrac == 0 {
		rc.FlushFrac = 0.10
	}
	if rc.Stream.Vocab == 0 {
		rc.Stream = gen.DefaultConfig()
	}
	if rc.WarmFlushes == 0 {
		rc.WarmFlushes = 6
	}
	if rc.MaxWarmIngest == 0 {
		rc.MaxWarmIngest = 2_000_000
	}
	if rc.MeasureQueries == 0 {
		rc.MeasureQueries = 30_000
	}
	if rc.QueriesPerIngest == 0 {
		rc.QueriesPerIngest = 1
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	rc.Stream.Seed = rc.Seed
	return rc
}

// RunResult is one run's steady-state measurement.
type RunResult struct {
	Policy    string
	K         int
	Budget    int64
	FlushFrac float64

	// HitRatio is the measured-phase memory hit ratio in [0,1].
	HitRatio float64
	// Hits and Misses count measured-phase queries.
	Hits, Misses int64
	// PerOp break down the measured-phase hits by operator.
	SingleHitRatio, OrHitRatio, AndHitRatio float64

	// Census is the final in-memory distribution snapshot; KFilled is
	// the Figure 7 metric.
	Census index.Census
	// OverheadBytes is the policy bookkeeping cost (Figure 10a).
	OverheadBytes int64
	// MemUsed is the final budget-relevant memory.
	MemUsed int64
	// Flushes and FlushedBytes summarize flushing activity.
	Flushes      int64
	FlushedBytes int64
	// Ingested counts total digested records.
	Ingested int64
	// DiskSegments and DiskReads summarize miss-path activity.
	DiskSegments int64
	DiskReads    int64
	// Latency summaries over the whole run (hit vs miss paths).
	MeanHit, P99Hit   time.Duration
	MeanMiss, P99Miss time.Duration
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// tempDiskDir returns the run's disk directory and a cleanup function.
func tempDiskDir(rc RunConfig) (string, func()) {
	if rc.DiskDir != "" {
		return rc.DiskDir, func() {}
	}
	dir, err := os.MkdirTemp("", "kflush-bench-")
	if err != nil {
		panic(err)
	}
	return dir, func() { os.RemoveAll(dir) }
}

// run drives one engine to steady state and measures it. next supplies
// stream records (nil records are skipped); wl supplies queries and may
// be nil for census-only runs.
func run[K comparable](rc RunConfig, eng *engine.Engine[K], clk *clock.Logical,
	next func() *types.Microblog, wl workload.Source[K]) RunResult {

	start := time.Now()
	obs, _ := wl.(workload.Observer)
	// ingestBatch digests up to n records as one batch, returning how
	// many stream records it consumed; the measurement phase ingests
	// batches of one. Stream records arrive pre-stamped, so advancing the
	// clock to the last timestamp matches the sequential path.
	ingestBatch := func(n int) int {
		batch := make([]*types.Microblog, 0, n)
		for len(batch) < n {
			mb := next()
			if mb == nil {
				break
			}
			clk.Set(mb.Timestamp)
			if obs != nil {
				obs.Observe(mb)
			}
			batch = append(batch, mb)
		}
		if len(batch) == 0 {
			return 0
		}
		if _, err := eng.IngestBatch(batch); err != nil {
			panic(err)
		}
		return len(batch)
	}
	ask := func() {
		if wl == nil {
			return
		}
		q := wl.Next()
		if _, err := eng.Search(query.Request[K]{Keys: q.Keys, Op: q.Op, K: rc.K}); err != nil {
			panic(err)
		}
	}

	// Warm-up: fill memory and get past the first flushes using batched
	// ingestion, issuing queries throughout so query-recency bookkeeping
	// (Phase 3, LRU) sees a realistic access pattern.
	reg := eng.Metrics()
	const warmBatch = 32
	warmQueriesEvery := 4 // sparse during warm-up; dense while measuring
	for i := 0; reg.Flushes.Load() < int64(rc.WarmFlushes) && i < rc.MaxWarmIngest; {
		n := ingestBatch(warmBatch)
		if n == 0 {
			break
		}
		i += n
		for j := 0; j < n/warmQueriesEvery; j++ {
			ask()
		}
	}

	// Measurement phase: interleave queries and ingestion at the
	// configured ratio; hit ratio is computed over this phase only.
	before := reg.Snap()
	if !rc.NoQueries && wl != nil {
		issued := 0
		for issued < rc.MeasureQueries {
			ingestBatch(1)
			for j := 0; j < rc.QueriesPerIngest && issued < rc.MeasureQueries; j++ {
				ask()
				issued++
			}
		}
	} else {
		// Census-only runs still push more stream through to stay in
		// steady state a while.
		for i := 0; i < rc.MeasureQueries; i++ {
			ingestBatch(1)
		}
	}
	after := reg.Snap()

	st := eng.Stats()
	res := RunResult{
		Policy:        rc.Policy,
		K:             rc.K,
		Budget:        rc.Budget,
		FlushFrac:     rc.FlushFrac,
		Census:        st.Census,
		OverheadBytes: st.PolicyOverhead,
		MemUsed:       st.MemoryUsed,
		Flushes:       after.Flushes,
		FlushedBytes:  after.FlushedBytes,
		Ingested:      after.Ingested,
		DiskSegments:  int64(st.Disk.Segments),
		DiskReads:     st.Disk.RecordReads,
		MeanHit:       st.Metrics.MeanHit,
		P99Hit:        st.Metrics.P99Hit,
		MeanMiss:      st.Metrics.MeanMiss,
		P99Miss:       st.Metrics.P99Miss,
		Elapsed:       time.Since(start),
	}
	// The figures report filled hits, the paper's Section IV-D event: a
	// complete hit — exact from memory because a key lost nothing — is
	// counted with the misses.
	res.Hits = after.FilledHits - before.FilledHits
	res.Misses = after.Queries - before.Queries - res.Hits
	if q := res.Hits + res.Misses; q > 0 {
		res.HitRatio = float64(res.Hits) / float64(q)
	}
	res.SingleHitRatio = filledRatio(before.SingleHits, before.SingleMisses, before.SingleCompleteHits,
		after.SingleHits, after.SingleMisses, after.SingleCompleteHits)
	res.OrHitRatio = filledRatio(before.OrHits, before.OrMisses, before.OrCompleteHits,
		after.OrHits, after.OrMisses, after.OrCompleteHits)
	res.AndHitRatio = filledRatio(before.AndHits, before.AndMisses, before.AndCompleteHits,
		after.AndHits, after.AndMisses, after.AndCompleteHits)
	return res
}

// filledRatio is one operator's filled hits over its queries between two
// snapshots of its hits, misses and complete hits.
func filledRatio(h0, m0, c0, h1, m1, c1 int64) float64 {
	filled := (h1 - h0) - (c1 - c0)
	if q := (h1 - h0) + (m1 - m0); q > 0 {
		return float64(filled) / float64(q)
	}
	return 0
}
