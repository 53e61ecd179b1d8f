package bench

import (
	"encoding/json"
	"io"
)

// RunSeconds is the measured-phase length BENCHMARK.json asks for. With
// four workloads the pipeline makes 92 runs inside 3420 s, so a run —
// generation, warm-up, set-up, ten measured seconds, checks and crash
// recovery — has to stay near 25 s.
const RunSeconds = 10

// WriteManifest writes BENCHMARK.json from the catalogue in this
// package, the one list of workloads and metrics.
func WriteManifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, wl := range Workloads {
		m.Workloads = append(m.Workloads, workload{wl.Name, wl.Why})
	}
	for _, d := range EndToEnd() {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range PerLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
