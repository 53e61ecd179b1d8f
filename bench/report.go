package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Report is what one run measured. The untraced pass fills the twelve
// end-to-end candidates and whatever driver health comes for free; the
// traced pass fills every per-layer metric as well.
type Report struct {
	Workload string
	Seed     int64
	Trace    bool
	InputSHA string
	// Metrics are in catalogue order: candidates, then layers.
	Metrics []Metric
	Info    []string
	Tally   tally
}

func newReport(cfg Config) *Report {
	return &Report{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace}
}

func (r *Report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// timing notes a latency class's sample count, median and the highest
// percentile that still has ten samples beyond it.
func (r *Report) timing(class string, sorted []int64) {
	q := HighestPercentile(len(sorted))
	if q == 0 {
		r.info("timing %s n=%d p50=%.1fus", class, len(sorted), usAt(sorted, 0.5))
		return
	}
	r.info("timing %s n=%d p50=%.1fus p%s=%.1fus", class, len(sorted), usAt(sorted, 0.5),
		strconv.FormatFloat(q*100, 'f', -1, 64), usAt(sorted, q))
}

// fill orders the measured values by the catalogue. Every candidate
// must have been measured, and a traced run must have produced every
// per-layer metric: a missing one is a harness bug, not a zero.
func (r *Report) fill(values map[string]float64) error {
	take := func(def MetricDef, as string, required bool) error {
		v, ok := values[def.Name]
		if !ok {
			if required {
				return fmt.Errorf("metric %s was not measured", def.Name)
			}
			return nil
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", def.Name)
		}
		r.Metrics = append(r.Metrics, Metric{Name: as, Value: v, Unit: def.Unit})
		return nil
	}
	for _, def := range Candidates {
		as := def.Name
		if !Gated[def.Name] {
			as = "driver." + def.Name
		}
		if err := take(def, as, true); err != nil {
			return err
		}
	}
	for _, def := range layerDefs {
		if err := take(def, def.Name, r.Trace); err != nil {
			return err
		}
	}
	return nil
}

// Value returns the metric called name.
func (r *Report) Value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Print writes the report: one "metric <name> <value> <unit>" line per
// metric, notes, and as the last line a JSON object holding the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.
func (r *Report) Print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(&b, "info driver.input_sha256 %s\n", r.InputSHA)
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "metric %s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, line := range r.Info {
		fmt.Fprintf(&b, "info %s\n", line)
	}
	fmt.Fprintf(&b, "info operations attempted=%d failed=%d violations: %s\n",
		r.Tally.attempted, r.Tally.failed, r.Tally.String())

	wanted := EndToEnd()
	if r.Trace {
		wanted = PerLayer()
	}
	line := resultLine{
		Correct: r.Tally.failed == 0, Attempted: r.Tally.attempted, Failed: r.Tally.failed,
		Metrics: map[string]resultValue{},
	}
	for _, def := range wanted {
		v, ok := r.Value(def.Name)
		if !ok {
			return fmt.Errorf("metric %s missing from the report", def.Name)
		}
		line.Metrics[def.Name] = resultValue{Value: v, Unit: def.Unit}
	}
	j, err := json.Marshal(line)
	if err != nil {
		return err
	}
	b.Write(j)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// ParseReport reads back what Print wrote: the metric lines by name.
// The A/A mode and the smoke test use it, so they see exactly what a
// reader of the output sees.
func ParseReport(out string) (metrics map[string]Metric, dup []string, last string) {
	metrics = map[string]Metric{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		last = line
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		if _, seen := metrics[f[1]]; seen {
			dup = append(dup, f[1])
		}
		metrics[f[1]] = Metric{Name: f[1], Value: v, Unit: f[3]}
	}
	return metrics, dup, last
}
