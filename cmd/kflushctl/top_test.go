package main

import (
	"strings"
	"testing"
	"time"
)

func TestCmdTopRejectsZeroInterval(t *testing.T) {
	for _, iv := range []time.Duration{0, -time.Second} {
		err := cmdTop("http://127.0.0.1:0", iv, 1)
		if err == nil || !strings.Contains(err.Error(), "interval must be positive") {
			t.Errorf("cmdTop(interval=%v) = %v, want interval error", iv, err)
		}
	}
}

func TestCheckTopFamilies(t *testing.T) {
	full := map[string]map[string]float64{
		"kflushing_ingested_total":       {"keyword": 1},
		"kflushing_queries_total":        {"keyword": 1},
		"kflushing_flush_pipeline_depth": {"keyword": 0},
	}
	if err := checkTopFamilies(full); err != nil {
		t.Errorf("complete scrape rejected: %v", err)
	}
	old := map[string]map[string]float64{
		"kflushing_ingested_total": {"keyword": 1},
	}
	err := checkTopFamilies(old)
	if err == nil {
		t.Fatal("scrape missing families accepted")
	}
	for _, want := range []string{"kflushing_queries_total", "kflushing_flush_pipeline_depth", "too old"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRenderTopNoNaN feeds identical scrapes (every delta zero) through
// a 1s window and checks no column renders as NaN or Inf — the failure
// mode the interval and family guards exist to prevent.
func TestRenderTopNoNaN(t *testing.T) {
	scrape := map[string]map[string]float64{
		"kflushing_ingested_total":       {"keyword": 10},
		"kflushing_queries_total":        {"keyword": 5},
		"kflushing_query_hits_total":     {"keyword": 3},
		"kflushing_flush_pipeline_depth": {"keyword": 0},
	}
	var sb strings.Builder
	renderTop(&sb, scrape, scrape, time.Second)
	out := sb.String()
	if !strings.Contains(out, "keyword") {
		t.Fatalf("attribute row missing from output:\n%s", out)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("output contains %s:\n%s", bad, out)
		}
	}
}

// TestParseExpositionSumsReasons reads a family split by reason as one
// value per attribute: the top view's hit ratio counts every hit.
func TestParseExpositionSumsReasons(t *testing.T) {
	text := `# TYPE kflushing_query_hits_total counter
kflushing_query_hits_total{attr="keyword",policy="kflushing",reason="filled"} 3
kflushing_query_hits_total{attr="keyword",policy="kflushing",reason="complete"} 4
kflushing_query_hits_total{attr="user",policy="kflushing",reason="filled"} 1
kflushing_queries_total{attr="keyword",policy="kflushing"} 9
`
	got, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if h := got["kflushing_query_hits_total"]; h["keyword"] != 7 || h["user"] != 1 {
		t.Errorf("hits = %v, want keyword 7 (3 filled + 4 complete), user 1", h)
	}
	if q := got["kflushing_queries_total"]["keyword"]; q != 9 {
		t.Errorf("queries = %v, want 9", q)
	}
}
