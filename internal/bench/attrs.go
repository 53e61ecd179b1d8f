package bench

import (
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
	"kflushing/internal/spatial"
	"kflushing/internal/workload"
)

// newEngine builds the engine of one run: the only place RunConfig
// meets engine.Config. The caller drives clk from the stream's
// timestamps and closes the engine.
func newEngine[K comparable](rc RunConfig, spec attr.Spec[K], dir string, syncFlush bool) (*engine.Engine[K], *clock.Logical) {
	var opts []core.Option[K]
	if rc.MaxPhase > 0 {
		opts = append(opts, core.WithMaxPhase[K](rc.MaxPhase))
	}
	if rc.SortSelector {
		opts = append(opts, core.WithSelector[K](core.SortSelector[K]{}))
	}
	pc, err := core.Choose(rc.Policy, int64(rc.FlushFrac*float64(rc.Budget)), opts...)
	if err != nil {
		panic("bench: " + err.Error())
	}
	clk := clock.NewLogical(1, 0)
	eng, err := engine.New(engine.Config[K]{
		K:             rc.K,
		MemoryBudget:  rc.Budget,
		FlushFraction: rc.FlushFrac,
		Attr:          spec,
		Clock:         clk,
		DiskDir:       dir,
		Policy:        pc,
		SyncFlush:     syncFlush,
	})
	if err != nil {
		panic(err)
	}
	return eng, clk
}

// sourceFunc builds a query workload over the run's stream config.
type sourceFunc[K comparable] func(cfg gen.Config, seed int64) workload.Source[K]

// runAttr executes one steady-state run on one attribute: spec names
// the attribute, geoFraction is the share of the stream that carries a
// location, and correlated/uniform build the attribute's two query
// workloads (RunConfig.Correlated picks one).
func runAttr[K comparable](rc RunConfig, spec attr.Spec[K], geoFraction float64, correlated, uniform sourceFunc[K]) RunResult {
	rc = rc.Defaults()
	dir, cleanup := tempDiskDir(rc)
	defer cleanup()
	eng, clk := newEngine(rc, spec, dir, true)
	defer eng.Close()

	streamCfg := rc.Stream
	streamCfg.GeoFraction = geoFraction
	var wl workload.Source[K]
	if !rc.NoQueries {
		source := uniform
		if rc.Correlated {
			source = correlated
		}
		wl = source(rc.Stream, rc.Seed+1000)
	}
	return run(rc, eng, clk, gen.New(streamCfg).Next, wl)
}

// RunKeyword executes one steady-state run on the keyword attribute;
// keyword runs need no locations.
func RunKeyword(rc RunConfig) RunResult {
	return runAttr(rc, attr.Keyword(), 0, workload.KeywordCorrelated, workload.KeywordUniform)
}

// RunSpatial executes one steady-state run on the spatial attribute
// (Figure 11): the stream is fully geotagged and queries target grid
// tiles.
func RunSpatial(rc RunConfig) RunResult {
	grid := spatial.DefaultGrid()
	return runAttr(rc, attr.Spatial(grid), 1,
		func(cfg gen.Config, seed int64) workload.Source[spatial.Cell] {
			return workload.SpatialCorrelated(cfg, grid, seed)
		},
		func(cfg gen.Config, seed int64) workload.Source[spatial.Cell] {
			return workload.SpatialUniform(cfg, grid, seed, 20_000)
		})
}

// RunUser executes one steady-state run on the user attribute
// (Figure 12): queries are single-key user timelines.
func RunUser(rc RunConfig) RunResult {
	return runAttr(rc, attr.User(), 0, workload.UserCorrelated, workload.UserUniform)
}
