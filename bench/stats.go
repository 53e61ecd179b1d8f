// Package bench is the kflushload harness: an open-loop load generator
// over the public kflushing API (and the kflushd HTTP surface) that
// reports end-to-end and per-layer metrics for four fixed workloads.
// It is unrelated to internal/bench, the paper-figure reproducer.
package bench

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. An empty input yields 0.
func Percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPercentiles are the reportable tails, lowest first.
var tailPercentiles = []float64{0.90, 0.99, 0.999, 0.9999}

// HighestPercentile returns the highest tail of tailPercentiles that
// still has at least ten samples beyond it, so the reported tail is
// never a single outlier. With fewer than 100 samples it returns 0.
func HighestPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		// Samples beyond the nearest-rank position of q; the epsilon
		// keeps 0.9*100 from rounding up to 91.
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			best = q
		}
	}
	return best
}

// ascending sorts the samples in place and returns them.
func ascending(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// usAt reports the q-quantile of nanosecond samples in microseconds.
func usAt(sorted []int64, q float64) float64 {
	return float64(Percentile(sorted, q)) / 1e3
}

// StartAndLag is the lateness-corrected open-loop clock. An operation
// was due at due; the driver reached its slot at arrived and, if it had
// to wait, woke at woke (all measured from the phase start). A driver
// that arrived late was busy with earlier operations, so the wait is
// the system's and latency runs from due. A driver that arrived early
// was idle; if the timer then woke it late, that slop is the harness's:
// latency runs from the wake-up and the lateness is reported as lag.
func StartAndLag(due, arrived, woke time.Duration) (from, lag time.Duration) {
	if arrived >= due {
		return due, 0
	}
	if woke < due {
		woke = due
	}
	return woke, woke - due
}

// Amplification is written (or stored) bytes per payload byte; 0 when
// nothing was ingested.
func Amplification(bytes, payload int64) float64 {
	if payload <= 0 {
		return 0
	}
	return float64(bytes) / float64(payload)
}

// ratio is a/b, or 0 when b is 0, so every reported metric is finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Quartiles returns the first quartile, median and third quartile of
// values with the exclusive method (what Python's
// statistics.quantiles(values, n=4) computes), so the A/A table agrees
// with the acceptance procedure. Fewer than two values yield the value
// itself three times.
func Quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return v[j-1] + d*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}
