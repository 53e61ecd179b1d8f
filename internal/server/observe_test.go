package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/blackbox"
	"kflushing/internal/promlint"
)

// TestMetricsExpositionLints parses the full /metrics output through the
// exposition linter: every series must carry HELP/TYPE, histogram
// buckets must be cumulative and le-sorted, and no series may repeat.
func TestMetricsExpositionLints(t *testing.T) {
	st := newTestStore(t)
	// Generate traffic so histograms and counters are non-trivial.
	for i := 1; i <= 50; i++ {
		if _, err := st.Ingest(&kflushing.Microblog{
			Keywords: []string{fmt.Sprintf("k%d", i%7)},
			UserID:   uint64(i%5 + 1),
			HasGeo:   true, Lat: 40.7, Lon: -74.0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SearchKeywords([]string{"k1"}, kflushing.OpSingle, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := st.kw.FlushNow(); err != nil {
		t.Fatal(err)
	}
	// A key nothing carried reads the departure record, which says it
	// never departed.
	if _, err := st.SearchKeywords([]string{"absent"}, kflushing.OpSingle, 5); err != nil {
		t.Fatal(err)
	}
	rw := do(t, st.Handler(), http.MethodGet, "/metrics", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rw.Code)
	}
	body := rw.Body.String()
	if probs := promlint.Lint(strings.NewReader(body)); len(probs) != 0 {
		for _, p := range probs {
			t.Error(p)
		}
		t.Fatalf("%d exposition problems", len(probs))
	}
	// The histogram replacement landed: real series, no mean/p99 gauges.
	for _, want := range []string{
		"# TYPE kflushing_flush_duration_seconds histogram",
		`kflushing_flush_duration_seconds_bucket{attr="keyword"`,
		"# TYPE kflushing_flushes_total counter",
		"kflushing_goroutines ",
		"kflushing_heap_alloc_bytes ",
		// Leveled-tier and pipeline observability (PR 6): a wedged
		// compactor or saturated flush pipeline must be visible here.
		"# TYPE kflushing_compaction_backlog gauge",
		`kflushing_compaction_backlog{attr="keyword"`,
		"# TYPE kflushing_disk_compactions_total counter",
		"# TYPE kflushing_disk_compaction_failures_total counter",
		"# TYPE kflushing_disk_level_segments gauge",
		`kflushing_disk_level_segments{attr="keyword",policy="kflushing",level="0"}`,
		"# TYPE kflushing_disk_level_bytes gauge",
		"# TYPE kflushing_disk_level_records gauge",
		"# TYPE kflushing_flush_pipeline_depth gauge",
		"# TYPE kflushing_flush_pipeline_enqueued_total counter",
		"# TYPE kflushing_flush_pipeline_fallbacks_total counter",
		"# TYPE kflushing_flush_stage_duration_seconds histogram",
		`kflushing_flush_stage_duration_seconds_bucket{attr="keyword",policy="kflushing",stage="build"`,
		// Query-stage latency attribution (PR 8): parse/index/heap/disk
		// histograms answer "where did a slow query spend its time"
		// without trace=1.
		"# TYPE kflushing_query_stage_duration_seconds histogram",
		`kflushing_query_stage_duration_seconds_bucket{attr="keyword",policy="kflushing",stage="index"`,
		`kflushing_query_stage_duration_seconds_bucket{attr="keyword",policy="kflushing",stage="heap"`,
		`kflushing_query_stage_duration_seconds_bucket{attr="keyword",policy="kflushing",stage="disk"`,
		// Online log reclaim: what a recovery reads against the budget,
		// and the reference and drain work that keeps it there. The log
		// is the store's: one series, no attribute label.
		"# TYPE kflushing_wal_bytes gauge",
		"\nkflushing_wal_bytes ",
		"# TYPE kflushing_wal_files gauge",
		"# TYPE kflushing_wal_live_records gauge",
		"# TYPE kflushing_wal_referenced_records_total counter",
		"# TYPE kflushing_wal_reclaimed_bytes_total counter",
		"# TYPE kflushing_flush_phase_complete_victims_total counter",
		// How a departed ceiling was served, and how full the ghosts are.
		"# TYPE kflushing_departed_reads_total counter",
		"# TYPE kflushing_departed_ghost_load gauge",
		`kflushing_departed_ghost_load{attr="keyword",policy="kflushing"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The flush trimmed the seven keyword entries, each complete until
	// then: Phase 1 counts them as complete victims.
	for _, want := range []string{
		`kflushing_flush_phase_complete_victims_total{attr="keyword",policy="kflushing",phase="1"} 7` + "\n",
		`kflushing_flush_phase_complete_victims_total{attr="keyword",policy="kflushing",phase="3"} 0` + "\n",
		`kflushing_departed_reads_total{attr="keyword",policy="kflushing",source="none"} 1` + "\n",
		`kflushing_departed_reads_total{attr="keyword",policy="kflushing",source="ghost"} 0` + "\n",
		`kflushing_departed_reads_total{attr="keyword",policy="kflushing",source="floor"} 0` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, gone := range []string{"flush_seconds_mean", "flush_seconds_p99", "flush_phase_seconds_mean", "kflushing_wal_bytes{"} {
		if strings.Contains(body, gone) {
			t.Errorf("legacy summary gauge %q still emitted", gone)
		}
	}
}

// TestSearchTraceParam exercises ?trace=1 end to end: a miss must name
// the disk segments probed with their Bloom and cache outcomes.
func TestSearchTraceParam(t *testing.T) {
	st := newTestStore(t)
	for i := 1; i <= 10; i++ {
		if _, err := st.Ingest(&kflushing.Microblog{Keywords: []string{"hot"}, UserID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Under-filled key (2 < k=5 postings): guaranteed memory miss.
	for i := 0; i < 2; i++ {
		if _, err := st.Ingest(&kflushing.Microblog{Keywords: []string{"cold"}, UserID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.kw.FlushNow(); err != nil {
		t.Fatal(err)
	}
	h := st.Handler()

	// Untraced requests must not carry a trace.
	rw := do(t, h, http.MethodGet, "/search/keywords?q=hot&k=5", "")
	var plain map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["trace"]; ok {
		t.Fatal("trace attached without trace=1")
	}

	rw = do(t, h, http.MethodGet, "/search/keywords?q=cold&k=5&trace=1", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("traced search status %d: %s", rw.Code, rw.Body)
	}
	var resp struct {
		Items     []json.RawMessage `json:"items"`
		MemoryHit bool              `json:"memory_hit"`
		Trace     *kflushing.Trace  `json:"trace"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("trace=1 returned no trace")
	}
	tr := resp.Trace
	if resp.MemoryHit || tr.MemoryHit {
		t.Fatal("under-filled key should miss")
	}
	if len(tr.Entries) != 1 || tr.Entries[0].Key != "cold" {
		t.Fatalf("entry probes: %+v", tr.Entries)
	}
	if tr.Disk == nil || len(tr.Disk.Segments) == 0 {
		t.Fatalf("miss trace names no segments: %+v", tr.Disk)
	}
	for _, sp := range tr.Disk.Segments {
		if sp.Segment == "" {
			t.Fatalf("unnamed segment probe: %+v", sp)
		}
	}
	if len(tr.Stages) < 3 {
		t.Fatalf("stages: %+v", tr.Stages)
	}
}

// TestFlushLogEndpoint verifies the flush log an operator gets over
// HTTP: /debug/blackbox's flush events fold (as kflushctl folds them)
// into cycles reporting per-phase victims and freed bytes,
// and ?id= returns exactly one cycle's events.
func TestFlushLogEndpoint(t *testing.T) {
	st := newTestStore(t)
	for i := 1; i <= 100; i++ {
		if _, err := st.Ingest(&kflushing.Microblog{Keywords: []string{fmt.Sprintf("k%d", i%7)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.kw.FlushNow(); err != nil {
		t.Fatal(err)
	}
	h := st.Handler()
	timeline := getTimeline(t, h, "/debug/blackbox?subsystem=flush&attr=keyword&n=100000")
	flush, epoch := timeline.events(), timeline.EpochUnixNanos
	evs := blackbox.FlushCycles(flush, epoch)
	if len(evs) == 0 {
		t.Fatal("keyword attribute has no flush cycles")
	}
	ev := evs[len(evs)-1]
	if ev.Trigger != "manual" || !ev.Complete || ev.Start < epoch || len(ev.Phases) == 0 {
		t.Fatalf("cycle event incomplete: %+v", ev)
	}
	if ev.Phases[0].Name != "regular" {
		t.Fatalf("first phase: %+v", ev.Phases[0])
	}
	var victims int64
	for _, ph := range ev.Phases {
		victims += ph.Victims
	}
	if victims == 0 {
		t.Fatal("no victims recorded across phases")
	}
	// The facade serves the same cycle, and knows the policy.
	if log := st.kw.FlushLog(1); len(log) != 1 || log[0].ID != ev.ID || log[0].Policy != "kflushing" ||
		!reflect.DeepEqual(log[0].Phases, ev.Phases) {
		t.Fatalf("FlushLog(1) = %+v, the endpoint's last cycle is %+v", log, ev)
	}

	// ?id= is every event of that cycle and nothing else, whichever
	// attribute and subsystem are (also) asked for.
	var want []uint64
	for _, e := range flush {
		if e.ID == ev.ID {
			want = append(want, e.Seq)
		}
	}
	for _, q := range []string{"?id=%d", "?id=%d&attr=keyword", "?id=%d&subsystem=flush&n=1000"} {
		byID := getTimeline(t, h, "/debug/blackbox"+fmt.Sprintf(q, ev.ID))
		var got []uint64
		for _, e := range byID.Events {
			if e.ID != ev.ID || e.Attr != "keyword" {
				t.Fatalf("%s returned %+v", q, e)
			}
			got = append(got, e.Seq)
		}
		if len(got) < 4 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s returned events %v, the cycle's are %v", q, got, want)
		}
	}
	if other := getTimeline(t, h, fmt.Sprintf("/debug/blackbox?id=%d&attr=spatial", ev.ID)); len(other.Events) != 0 {
		t.Fatalf("a keyword cycle's ID matched spatial events: %+v", other.Events)
	}

	// Validation: id like n, attr as everywhere.
	for _, bad := range []string{"?id=abc", "?id=-1", "?id=0", "?id=1.5", "?attr=bogus", "?id=7&n=0"} {
		if rw := do(t, h, http.MethodGet, "/debug/blackbox"+bad, ""); rw.Code != http.StatusBadRequest {
			t.Fatalf("/debug/blackbox%s accepted: %d", bad, rw.Code)
		}
	}
	// The journal's and the slow log's own endpoints are gone.
	for _, gone := range []string{"/debug/flushlog", "/debug/slowlog"} {
		if rw := do(t, h, http.MethodGet, gone, ""); rw.Code != http.StatusNotFound {
			t.Fatalf("%s still served: %d", gone, rw.Code)
		}
	}
}

// TestReadyz verifies the readiness probe does real I/O checks and
// reports failures as 503 with a JSON reason.
func TestReadyz(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, kflushing.Options{MemoryBudget: 8 << 20, K: 5, SyncFlush: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	h := st.Handler()
	rw := do(t, h, http.MethodGet, "/readyz", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("healthy store not ready: %d %s", rw.Code, rw.Body)
	}
	var ok struct {
		Ready bool                            `json:"ready"`
		Disk  map[string]kflushing.DiskHealth `json:"disk"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &ok); err != nil || !ok.Ready {
		t.Fatalf("ready body: %s (err=%v)", rw.Body, err)
	}
	// The probe body carries disk health per attribute: layout, level
	// occupancy, compaction backlog, and pipeline queue depth.
	for _, attr := range []string{"keyword", "spatial", "user"} {
		h, found := ok.Disk[attr]
		if !found {
			t.Fatalf("readyz disk health missing attribute %q: %s", attr, rw.Body)
		}
		if h.Layout != "leveled" {
			t.Fatalf("%s layout = %q, want leveled (the default)", attr, h.Layout)
		}
		if h.CompactionBacklog != 0 || h.PipelineDepth != 0 {
			t.Fatalf("%s idle store reports backlog=%d depth=%d", attr, h.CompactionBacklog, h.PipelineDepth)
		}
	}

	// A closed store can no longer append to its WAL or write its tier.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rw = do(t, h, http.MethodGet, "/readyz", "")
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed store reported ready: %d %s", rw.Code, rw.Body)
	}
	var fail struct {
		Ready   bool              `json:"ready"`
		Reasons map[string]string `json:"reasons"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &fail); err != nil {
		t.Fatal(err)
	}
	if fail.Ready || len(fail.Reasons) == 0 {
		t.Fatalf("failure body lacks reasons: %s", rw.Body)
	}
}

// TestPprofGate verifies profiling endpoints are mounted only on opt-in.
func TestPprofGate(t *testing.T) {
	st := newTestStore(t)
	if rw := do(t, st.Handler(), http.MethodGet, "/debug/pprof/", ""); rw.Code != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: %d", rw.Code)
	}
	h := st.HandlerWithOptions(HandlerOptions{EnablePprof: true})
	if rw := do(t, h, http.MethodGet, "/debug/pprof/", ""); rw.Code != http.StatusOK {
		t.Fatalf("pprof opt-in not served: %d", rw.Code)
	}
}
