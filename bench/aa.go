package bench

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// AA collects two interleaved sets of end-to-end passes made by one
// binary and compares them: the same code measured twice. What differs
// between the sets is the noise floor of the box, and a metric whose
// noise exceeds its bound cannot gate anything.
type AA struct {
	runs    int
	seconds float64
	// values[set][workload][candidate] are the per-run readings.
	values [2]map[string]map[string][]float64
}

// NewAA prepares a comparison of runs passes per set.
func NewAA(runs int, seconds float64) *AA {
	a := &AA{runs: runs, seconds: seconds}
	for s := range a.values {
		a.values[s] = map[string]map[string][]float64{}
	}
	return a
}

// Add records the printed output of one end-to-end pass.
func (a *AA) Add(set int, workload, output string) {
	got, _, _ := ParseReport(output)
	byName := a.values[set][workload]
	if byName == nil {
		byName = map[string][]float64{}
		a.values[set][workload] = byName
	}
	for _, c := range Candidates {
		m, ok := got[c.Name]
		if !ok {
			m, ok = got["driver."+c.Name]
		}
		if ok {
			byName[c.Name] = append(byName[c.Name], m.Value)
		}
	}
}

// Verdicts of one metric on one workload.
const (
	verdictSteady   = "steady"   // spreads and difference within a third of the bound
	verdictMarginal = "marginal" // within the bound, but not by the margin a gate needs
	verdictNoisy    = "noisy"    // beyond the bound: cannot be gated here
)

// judge applies the acceptance procedure to one metric on one workload:
// the spread of each set (distance between the quartiles as a share of
// the median) and how much worse the second median is than the first.
func judge(a, b []float64, bound float64) (spreadA, spreadB, diff float64, verdict string) {
	q1, medA, q3 := Quartiles(a)
	spreadA = ratio(q3-q1, medA)
	q1, medB, q3 := Quartiles(b)
	spreadB = ratio(q3-q1, medB)
	diff = ratio(medB-medA, medA)
	worst := math.Max(math.Max(spreadA, spreadB), math.Abs(diff))
	switch {
	case worst <= bound/3:
		verdict = verdictSteady
	case worst <= bound:
		verdict = verdictMarginal
	default:
		verdict = verdictNoisy
	}
	return
}

// gateShare is the share of its bound a candidate's worst reading may
// reach, on any workload, and still be gated.
const gateShare = 0.5

// Table renders the comparison as Markdown. ok is false when a metric
// that BENCHMARK.json lists as end-to-end is noisy on some workload.
//
// Demotion rule: a candidate is gated only if on every workload its
// worst reading (either spread, or the median difference) stays under
// half its bound. The benchmark contract wants one end-to-end list
// shared by all workloads, so a candidate that fails on one workload is
// demoted everywhere; it is then printed as driver.<name> in the
// per-layer section. Bounds are not widened to keep a metric in.
func (a *AA) Table() (md string, ok bool) {
	var b strings.Builder
	ok = true
	fmt.Fprintf(&b, "# A/A: the same binary measured twice\n\n")
	fmt.Fprintf(&b, "`kflushload aa -runs %d -seconds %g`, %s, %d cores, %s. Two interleaved sets (A B A B ...) of\n",
		a.runs, a.seconds, time.Now().Format("2006-01-02"), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(&b, "end-to-end passes, tracing off, each run with another seed (the same seeds in both sets).\n")
	fmt.Fprintf(&b, "spread = (Q3-Q1)/median of a set; diff = (median B - median A)/median A.\n")
	fmt.Fprintf(&b, "steady: both spreads and |diff| within a third of the bound; marginal: within the bound; noisy: beyond it.\n")
	fmt.Fprintf(&b, "The bound of a demoted candidate is the one it would have carried.\n\n")

	worstShare := map[string]float64{} // worst reading as a share of the bound, over workloads
	for _, w := range Workloads {
		fmt.Fprintf(&b, "## %s\n\n", w.Name)
		fmt.Fprintf(&b, "| metric | unit | median A | median B | spread A | spread B | diff | bound | verdict |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
		for _, c := range Candidates {
			va, vb := a.values[0][w.Name][c.Name], a.values[1][w.Name][c.Name]
			_, medA, _ := Quartiles(va)
			_, medB, _ := Quartiles(vb)
			sa, sb, diff, verdict := judge(va, vb, c.Bound)
			share := math.Max(math.Max(sa, sb), math.Abs(diff)) / c.Bound
			worstShare[c.Name] = math.Max(worstShare[c.Name], share)
			fmt.Fprintf(&b, "| %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				c.Name, c.Unit, medA, medB, 100*sa, 100*sb, 100*diff, 100*c.Bound, verdict)
			if Gated[c.Name] && verdict == verdictNoisy {
				ok = false
			}
		}
		b.WriteString("\n")
	}

	fmt.Fprintf(&b, "## Gating\n\nA candidate is gated when its worst reading on any workload stays under %.0f%% of its bound.\n\n", 100*gateShare)
	fmt.Fprintf(&b, "| metric | worst reading / bound | listed as |\n|---|---|---|\n")
	for _, c := range Candidates {
		listed := "end_to_end"
		if !Gated[c.Name] {
			listed = "per_layer `driver." + c.Name + "` (demoted)"
		}
		if Gated[c.Name] != (worstShare[c.Name] <= gateShare) {
			listed += " — NOT what this table's rule gives"
			ok = ok && !Gated[c.Name]
		}
		fmt.Fprintf(&b, "| %s | %.2f | %s |\n", c.Name, worstShare[c.Name], listed)
	}
	return b.String(), ok
}
