package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the
// harness's metric catalogue one list.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
	}
	e2e := EndToEnd()
	if len(f.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness gates %d", len(f.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
	layers := PerLayer()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(f.PerLayer), len(layers))
	}
	for i, m := range layers {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload at 1/40 scale, both passes, and checks
// that each prints every metric BENCHMARK.json names exactly once, with
// its unit and a finite value, and ends in a well-formed result line.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	out := t.TempDir()
	kflushd := ""
	if !testing.Short() {
		kflushd = filepath.Join(out, "kflushd")
		cmd := exec.Command("go", "build", "-o", kflushd, "kflushing/cmd/kflushd")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build kflushd: %v\n%s", err, b)
		}
	}
	for _, w := range Workloads {
		if w.http && testing.Short() {
			continue // needs the kflushd binary
		}
		for _, traced := range []bool{false, true} {
			rep, err := Run(Config{
				Workload: w.Name, Seed: 3, Seconds: 0.5, Scale: 1.0 / 40,
				Trace: traced, OutDir: out, Kflushd: kflushd,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var buf bytes.Buffer
			if err := rep.Print(&buf); err != nil {
				t.Fatalf("%s traced=%v: print: %v", w.Name, traced, err)
			}
			printed, dup, last := ParseReport(buf.String())
			if len(dup) > 0 {
				t.Errorf("%s traced=%v: metrics printed more than once: %v", w.Name, traced, dup)
			}
			type want struct{ name, unit string }
			var wanted []want
			for _, m := range f.EndToEnd {
				wanted = append(wanted, want{m.Name, m.Unit})
			}
			if traced {
				for _, m := range f.PerLayer {
					wanted = append(wanted, want{m.Name, m.Unit})
				}
			}
			for _, m := range wanted {
				got, ok := printed[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not printed", w.Name, traced, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s traced=%v: %s printed in %s, BENCHMARK.json says %s", w.Name, traced, m.name, got.Unit, m.unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.name, got.Value)
				}
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int   `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64
					Unit  string
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not JSON: %v\n%s", w.Name, traced, err, last)
			}
			listed := len(f.EndToEnd)
			if traced {
				listed = len(f.PerLayer)
			}
			if line.Correct == nil || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != listed {
				t.Errorf("%s traced=%v: malformed result line (%d metrics, want %d): %s", w.Name, traced, len(line.Metrics), listed, last)
			}
			if rep.Tally.failed != 0 {
				t.Errorf("%s traced=%v: %d failed operations: %s", w.Name, traced, rep.Tally.failed, rep.Tally.String())
			}
			if traced {
				checkTraceFile(t, filepath.Join(out, w.Name+".trace.json"))
			}
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(out, "data-*")); len(entries) > 0 {
		t.Errorf("data directories left behind: %v", entries)
	}
}

// checkTraceFile verifies the span file: parent-linked spans whose
// operation IDs join a driver span to its sampled stage children.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[int]Span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Parent == 0 {
			if !strings.HasPrefix(s.Name, "driver.") {
				t.Errorf("%s: root span %d is %q, want a driver span", path, s.ID, s.Name)
			}
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Errorf("%s: span %d (%s) has parent %d of another operation", path, s.ID, s.Name, s.Parent)
		}
	}
	if len(tf.Spans) == 0 || children == 0 {
		t.Errorf("%s: %d spans, %d stage children; want both", path, len(tf.Spans), children)
	}
}
