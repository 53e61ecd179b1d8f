package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/attr"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/workload"
)

// Fig10a regenerates Figure 10(a): policy memory overhead vs k. The
// paper's ordering — LRU highest (per-item tracking), FIFO lowest (a
// segment directory only), kFlushing variants in between (per-entry
// timestamps, the over-k list, and the temporary flush buffer).
func Fig10a(s Scale) *Table {
	xs := make([]string, len(s.Ks))
	for i, k := range s.Ks {
		xs[i] = fmt.Sprintf("%d", k)
	}
	return sweepTable(
		"Figure 10(a): flushing-policy memory overhead vs k",
		"bookkeeping bytes + peak temporary flush buffer",
		"k", xs,
		func(i int) RunConfig {
			rc := s.baseRun()
			rc.K = s.Ks[i]
			rc.Correlated = true
			return rc
		},
		RunKeyword,
		func(r RunResult) string { return fMiB(r.OverheadBytes) },
	)
}

// Fig10b regenerates Figure 10(b): digestion rate vs k. The stream is
// unthrottled ("we stress our system and let the tweets arrive as fast
// as it tolerates") while a query thread runs concurrently and flushing
// executes on its own goroutine. Records are pre-generated so the
// measurement times only the digestion path.
func Fig10b(s Scale) *Table {
	t := &Table{
		Title:  "Figure 10(b): digestion rate vs k (unthrottled ingest, concurrent queries)",
		Note:   "paper: FIFO ~120K/s > kFlushing ~100K/s > kFlushing-MK ~80K/s >> LRU ~29K/s",
		Header: append([]string{"k"}, AllPolicies...),
	}
	for _, k := range s.Ks {
		row := []string{fmt.Sprintf("%d", k)}
		for _, pol := range AllPolicies {
			rc := s.baseRun()
			rc.Policy = pol
			rc.K = k
			rate := digestionRate(rc)
			row = append(row, fRate(rate))
		}
		t.AddRow(row...)
	}
	return t
}

// digestionRate measures sustained ingest throughput (records/second of
// wall time) with background flushing and a concurrent query workload.
func digestionRate(rc RunConfig) float64 {
	rc = rc.Defaults()
	dir, cleanup := tempDiskDir(rc)
	defer cleanup()

	// Flushing on its own thread, as in the paper.
	eng, clk := newEngine(rc, attr.Keyword(), dir, false)
	defer eng.Close()

	// Pre-generate the stream so generation cost is excluded.
	streamCfg := rc.Stream
	streamCfg.GeoFraction = 0
	g := gen.New(streamCfg)
	warm := int(rc.Budget / 250) // roughly one memory fill
	measure := warm
	recs := make([]*types.Microblog, warm+measure)
	for i := range recs {
		recs[i] = g.Next()
	}
	for _, mb := range recs[:warm] {
		clk.Set(mb.Timestamp)
		if _, err := eng.Ingest(mb); err != nil && err != engine.ErrNoKeys {
			panic(err)
		}
	}

	// Concurrent query thread: correlated load, runs until stopped.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wl := workload.KeywordCorrelated(rc.Stream, rc.Seed+2000)
		for !stop.Load() {
			q := wl.Next()
			if _, err := eng.Search(query.Request[string]{Keys: q.Keys, Op: q.Op, K: rc.K}); err != nil {
				return
			}
		}
	}()

	start := time.Now()
	for _, mb := range recs[warm:] {
		clk.Set(mb.Timestamp)
		if _, err := eng.Ingest(mb); err != nil && err != engine.ErrNoKeys {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	return float64(measure) / elapsed.Seconds()
}

// Latency validates the paper's claim that kFlushing keeps "the
// in-memory query performance intact": per policy, the in-memory (hit)
// query latency must be in the same band, with only the hit *ratio*
// differing; miss latencies show what a disk visit costs.
func Latency(s Scale) *Table {
	t := &Table{
		Title:  "Query latency by policy (correlated load, k=20)",
		Note:   "hit latency must be flat across policies (the paper: in-memory performance intact)",
		Header: []string{"policy", "hit-ratio", "hit-mean", "hit-p99", "miss-mean", "miss-p99"},
	}
	for _, pol := range AllPolicies {
		rc := s.baseRun()
		rc.Policy = pol
		rc.K = 20
		rc.Correlated = true
		res := RunKeyword(rc)
		t.AddRow(pol, fPct(res.HitRatio),
			res.MeanHit.String(), res.P99Hit.String(),
			res.MeanMiss.String(), res.P99Miss.String())
	}
	return t
}

// AblationPhases compares kFlushing capped at phases 1, 1+2, and 1+2+3
// on hit ratio and k-filled keywords — quantifying what each phase
// contributes (DESIGN.md ablation 4).
func AblationPhases(s Scale) *Table {
	t := &Table{
		Title:  "Ablation: contribution of kFlushing phases (correlated load, k=20)",
		Header: []string{"phases", "hit-ratio", "k-filled", "flushes", "mem-used"},
	}
	for _, mp := range []int{1, 2, 3} {
		rc := s.baseRun()
		rc.Policy = PolKFlushing
		rc.K = 20
		rc.MaxPhase = mp
		rc.Correlated = true
		res := RunKeyword(rc)
		label := map[int]string{1: "1", 2: "1+2", 3: "1+2+3"}[mp]
		t.AddRow(label, fPct(res.HitRatio), fInt(int64(res.Census.KFilled)),
			fInt(res.Flushes), fMiB(res.MemUsed))
	}
	return t
}

// AblationSelector compares the paper's O(n) single-pass heap victim
// selection against the O(n log n) sort strawman (DESIGN.md ablation 1)
// on end-to-end run time and resulting hit ratio (the victim sets should
// be equivalent).
func AblationSelector(s Scale) *Table {
	t := &Table{
		Title:  "Ablation: Phase 2/3 victim selection, single-pass heap vs sort",
		Header: []string{"selector", "hit-ratio", "k-filled", "run-time"},
	}
	for _, sort := range []bool{false, true} {
		rc := s.baseRun()
		rc.Policy = PolKFlushing
		rc.K = 20
		rc.Correlated = true
		rc.SortSelector = sort
		res := RunKeyword(rc)
		name := "heap (paper)"
		if sort {
			name = "sort"
		}
		t.AddRow(name, fPct(res.HitRatio), fInt(int64(res.Census.KFilled)), res.Elapsed.Round(time.Millisecond).String())
	}
	return t
}
