package bench

import (
	"time"

	"kflushing"
	"kflushing/internal/metrics"
)

// counters is a phase-boundary snapshot of everything the store and its
// runtime count. It is taken only between phases: Stats() scans the
// index. A store behind kflushd contributes one Stats per attribute
// system; sums below run across them.
type counters struct {
	stats []kflushing.Stats

	gcCycles   int64
	gcPause    time.Duration
	gcCPU      time.Duration // in-process only; kflushd does not export it
	heapInuse  int64
	poolGets   int64 // posting slab pool, in-process only
	poolReuses int64
}

// sum adds f over the attribute systems.
func (c counters) sum(f func(kflushing.Stats) int64) int64 {
	var t int64
	for _, s := range c.stats {
		t += f(s)
	}
	return t
}

// delta is sum(f) at the end of a phase minus sum(f) at its start.
func delta(from, to counters, f func(kflushing.Stats) int64) float64 {
	return float64(to.sum(f) - from.sum(f))
}

// stageNanos is the total time a stage histogram has observed. The
// snapshot keeps runs and a truncated mean, so the product is off by
// less than one nanosecond per run.
func stageNanos(p metrics.PhaseSnapshot) int64 { return p.Runs * int64(p.Mean) }

// meanStageMs is the mean duration in milliseconds of the stage runs
// that happened between two snapshots.
func meanStageMs(from, to counters, pick func(kflushing.Stats) metrics.PhaseSnapshot) float64 {
	nanos := delta(from, to, func(s kflushing.Stats) int64 { return stageNanos(pick(s)) })
	runs := delta(from, to, func(s kflushing.Stats) int64 { return pick(s).Runs })
	return ratio(nanos, runs) / 1e6
}

func flushStage(i int) func(kflushing.Stats) metrics.PhaseSnapshot {
	return func(s kflushing.Stats) metrics.PhaseSnapshot { return s.Metrics.Stages[i] }
}

func flushPhase(i int) func(kflushing.Stats) metrics.PhaseSnapshot {
	return func(s kflushing.Stats) metrics.PhaseSnapshot { return s.Metrics.Phases[i] }
}

func queryStage(i int) func(kflushing.Stats) int64 {
	return func(s kflushing.Stats) int64 { return stageNanos(s.Metrics.QueryStages[i]) }
}
