package bench

import (
	"fmt"

	"kflushing/internal/attr"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
)

// Scale sizes the experiments. The paper runs 30 GB budgets over 2B+
// tweets and 10M queries; Default scales that to laptop-size while
// preserving the ratios that drive policy behaviour. Quick is for smoke
// tests and testing.B benchmarks.
type Scale struct {
	// Budget is the default memory budget.
	Budget int64
	// Budgets is the memory-budget sweep (Figures 7c/8c/9c/11/12).
	Budgets []int64
	// Ks is the top-k sweep (Figures 7a/8a/9a/10).
	Ks []int
	// FlushFracs is the flushing-budget sweep (Figures 7b/8b/9b).
	FlushFracs []float64
	// MeasureQueries per run.
	MeasureQueries int
	// WarmFlushes before measuring.
	WarmFlushes int
	// Seed for all sampling.
	Seed int64
}

// DefaultScale mirrors the paper's sweeps at 1 MiB per paper-GB.
func DefaultScale() Scale {
	return Scale{
		Budget:         30 << 20,
		Budgets:        []int64{10 << 20, 20 << 20, 30 << 20, 40 << 20, 50 << 20},
		Ks:             []int{5, 10, 20, 40, 60, 80, 100},
		FlushFracs:     []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		MeasureQueries: 30_000,
		WarmFlushes:    6,
		Seed:           1,
	}
}

// QuickScale is a fast, reduced sweep for tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Budget:         6 << 20,
		Budgets:        []int64{4 << 20, 8 << 20},
		Ks:             []int{5, 20},
		FlushFracs:     []float64{0.2, 0.6},
		MeasureQueries: 2_000,
		WarmFlushes:    3,
		Seed:           1,
	}
}

func (s Scale) baseRun() RunConfig {
	return RunConfig{
		Budget:         s.Budget,
		MeasureQueries: s.MeasureQueries,
		WarmFlushes:    s.WarmFlushes,
		Seed:           s.Seed,
	}
}

// Snapshot regenerates the Section III-A observation and Figure 1: the
// share of memory consumed by postings that can never serve a top-k
// query, under each policy at steady state (k=20).
func Snapshot(s Scale) *Table {
	t := &Table{
		Title:  "Snapshot of in-memory contents (Section III-A / Figure 1, k=20)",
		Note:   "useless = postings ranked outside their entry's top-k; paper reports >75% under temporal flushing",
		Header: []string{"policy", "entries", "postings", "beyond-topk", "useless", "k-filled"},
	}
	for _, pol := range AllPolicies {
		rc := s.baseRun()
		rc.Policy = pol
		rc.K = 20
		rc.Correlated = true
		res := RunKeyword(rc)
		useless := 0.0
		if res.Census.Postings > 0 {
			useless = float64(res.Census.BeyondTopK) / float64(res.Census.Postings)
		}
		t.AddRow(pol, fInt(int64(res.Census.Entries)), fInt(int64(res.Census.Postings)),
			fInt(int64(res.Census.BeyondTopK)), fPct(useless), fInt(int64(res.Census.KFilled)))
	}
	return t
}

// Fig5 regenerates Figure 5: the memory-consumption timeline under
// Phase 1 alone (saturating: each flush frees less) versus Phases 1+2
// (steady: every flush frees at least B). Sampled in percent of budget
// per timeline step.
func Fig5(s Scale) *Table {
	t := &Table{
		Title:  "Figure 5: memory consumption behavior over time",
		Note:   "phase1-only flushes shrink toward saturation; phase1+2 keeps freeing >= B every flush",
		Header: []string{"step", "phase1-only-used%", "phase1-only-flushes", "phase1+2-used%", "phase1+2-flushes"},
	}
	series := make([][2][]float64, 2) // [variant]{used%, flushes}
	for vi, maxPhase := range []int{1, 2} {
		rc := s.baseRun()
		rc.Policy = PolKFlushing
		rc.K = 20
		rc.MaxPhase = maxPhase
		rc = rc.Defaults()

		dir, cleanup := tempDiskDir(rc)
		eng, clk := newEngine(rc, attr.Keyword(), dir, true)
		streamCfg := rc.Stream
		streamCfg.GeoFraction = 0
		g := gen.New(streamCfg)

		// Sample used% every sampleEvery ingests across enough stream
		// to see several flush cycles.
		const samples = 50
		totalIngest := 6 * int(rc.Budget/300) // ~6 memory fills
		sampleEvery := totalIngest / samples
		var usedPct, flushes []float64
		for i := 0; i < totalIngest; i++ {
			mb := g.Next()
			clk.Set(mb.Timestamp)
			if _, err := eng.Ingest(mb); err != nil && err != engine.ErrNoKeys {
				panic(err)
			}
			if i%sampleEvery == 0 {
				usedPct = append(usedPct, 100*float64(eng.Mem().Used())/float64(rc.Budget))
				flushes = append(flushes, float64(eng.Metrics().Flushes.Load()))
			}
		}
		series[vi] = [2][]float64{usedPct, flushes}
		eng.Close()
		cleanup()
	}
	n := len(series[0][0])
	if len(series[1][0]) < n {
		n = len(series[1][0])
	}
	for i := 0; i < n; i++ {
		t.AddRow(fInt(int64(i)),
			fF2(series[0][0][i]), fInt(int64(series[0][1][i])),
			fF2(series[1][0][i]), fInt(int64(series[1][1][i])))
	}
	return t
}

// sweepTable runs cfg across the four policies for each x value and
// reports metric(res) per policy column.
func sweepTable(title, note, xName string, xs []string,
	configure func(i int) RunConfig, runOne func(RunConfig) RunResult,
	metric func(RunResult) string) *Table {

	t := &Table{
		Title:  title,
		Note:   note,
		Header: append([]string{xName}, AllPolicies...),
	}
	for i, x := range xs {
		row := []string{x}
		for _, pol := range AllPolicies {
			rc := configure(i)
			rc.Policy = pol
			row = append(row, metric(runOne(rc)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig7a regenerates Figure 7(a): number of k-filled keywords vs k.
func Fig7a(s Scale) *Table {
	xs := make([]string, len(s.Ks))
	for i, k := range s.Ks {
		xs[i] = fmt.Sprintf("%d", k)
	}
	return sweepTable(
		"Figure 7(a): k-filled keywords vs k",
		"correlated query load; higher is better",
		"k", xs,
		func(i int) RunConfig {
			rc := s.baseRun()
			rc.K = s.Ks[i]
			rc.Correlated = true
			return rc
		},
		RunKeyword,
		func(r RunResult) string { return fInt(int64(r.Census.KFilled)) },
	)
}

// Fig7b regenerates Figure 7(b): k-filled keywords vs flushing budget.
func Fig7b(s Scale) *Table {
	xs := make([]string, len(s.FlushFracs))
	for i, b := range s.FlushFracs {
		xs[i] = fmt.Sprintf("%.0f%%", b*100)
	}
	return sweepTable(
		"Figure 7(b): k-filled keywords vs flushing budget",
		"correlated query load, k=20",
		"B", xs,
		func(i int) RunConfig {
			rc := s.baseRun()
			rc.K = 20
			rc.FlushFrac = s.FlushFracs[i]
			rc.Correlated = true
			return rc
		},
		RunKeyword,
		func(r RunResult) string { return fInt(int64(r.Census.KFilled)) },
	)
}

// Fig7c regenerates Figure 7(c): k-filled keywords vs memory budget.
func Fig7c(s Scale) *Table {
	xs := make([]string, len(s.Budgets))
	for i, b := range s.Budgets {
		xs[i] = fMiB(b)
	}
	return sweepTable(
		"Figure 7(c): k-filled keywords vs memory budget",
		"correlated query load, k=20 (paper sweeps 10-50GB; scaled 1MiB per GB)",
		"memory", xs,
		func(i int) RunConfig {
			rc := s.baseRun()
			rc.K = 20
			rc.Budget = s.Budgets[i]
			rc.Correlated = true
			return rc
		},
		RunKeyword,
		func(r RunResult) string { return fInt(int64(r.Census.KFilled)) },
	)
}

// hitRatioSweeps builds the three hit-ratio sweeps (vs k, vs B, vs
// memory) for one workload, regenerating Figures 8 and 9.
func hitRatioSweeps(s Scale, correlated bool, figure string) []*Table {
	wl := "uniform"
	if correlated {
		wl = "correlated"
	}
	kXs := make([]string, len(s.Ks))
	for i, k := range s.Ks {
		kXs[i] = fmt.Sprintf("%d", k)
	}
	bXs := make([]string, len(s.FlushFracs))
	for i, b := range s.FlushFracs {
		bXs[i] = fmt.Sprintf("%.0f%%", b*100)
	}
	mXs := make([]string, len(s.Budgets))
	for i, b := range s.Budgets {
		mXs[i] = fMiB(b)
	}
	metric := func(r RunResult) string { return fPct(r.HitRatio) }
	return []*Table{
		sweepTable(
			fmt.Sprintf("Figure %s(a): hit ratio vs k (%s load)", figure, wl), "",
			"k", kXs,
			func(i int) RunConfig {
				rc := s.baseRun()
				rc.K = s.Ks[i]
				rc.Correlated = correlated
				return rc
			},
			RunKeyword, metric),
		sweepTable(
			fmt.Sprintf("Figure %s(b): hit ratio vs flushing budget (%s load)", figure, wl), "k=20",
			"B", bXs,
			func(i int) RunConfig {
				rc := s.baseRun()
				rc.K = 20
				rc.FlushFrac = s.FlushFracs[i]
				rc.Correlated = correlated
				return rc
			},
			RunKeyword, metric),
		sweepTable(
			fmt.Sprintf("Figure %s(c): hit ratio vs memory budget (%s load)", figure, wl), "k=20",
			"memory", mXs,
			func(i int) RunConfig {
				rc := s.baseRun()
				rc.K = 20
				rc.Budget = s.Budgets[i]
				rc.Correlated = correlated
				return rc
			},
			RunKeyword, metric),
	}
}

// Fig8 regenerates Figure 8(a,b,c): hit ratio on the correlated load.
func Fig8(s Scale) []*Table { return hitRatioSweeps(s, true, "8") }

// Fig9 regenerates Figure 9(a,b,c): hit ratio on the uniform load.
func Fig9(s Scale) []*Table { return hitRatioSweeps(s, false, "9") }
