package engine

import (
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/trace"
	"kflushing/internal/types"
)

func TestSearchTracedHit(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	for i := 1; i <= 10; i++ {
		ingest(t, eng, int64(i), "hot")
	}
	tr := trace.New()
	res, err := eng.Search(query.Request[string]{Keys: []string{"hot"}, Op: query.OpSingle, K: 5, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || !tr.MemoryHit {
		t.Fatalf("expected memory hit: res=%v trace=%v", res.MemoryHit, tr.MemoryHit)
	}
	if tr.Disk != nil {
		t.Fatal("hit query should not carry a disk probe")
	}
	if tr.Op != "single" || tr.K != 5 || len(tr.Keys) != 1 || tr.Keys[0] != "hot" {
		t.Fatalf("trace header wrong: op=%q k=%d keys=%v", tr.Op, tr.K, tr.Keys)
	}
	if len(tr.Entries) != 1 || !tr.Entries[0].Found || !tr.Entries[0].KFilled {
		t.Fatalf("entry probe wrong: %+v", tr.Entries)
	}
	if tr.Entries[0].Postings != 10 {
		t.Fatalf("entry postings = %d, want 10", tr.Entries[0].Postings)
	}
	if tr.Items != len(res.Items) {
		t.Fatalf("trace items %d != result items %d", tr.Items, len(res.Items))
	}
	names := map[string]bool{}
	for _, st := range tr.Stages {
		names[st.Name] = true
		if st.Nanos < 0 {
			t.Fatalf("negative stage timing: %+v", st)
		}
	}
	if !names["memory"] || !names["total"] {
		t.Fatalf("missing stages, got %v", tr.Stages)
	}
}

func TestSearchTracedMissNamesSegments(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	for i := 1; i <= 10; i++ {
		ingest(t, eng, int64(i), "hot")
	}
	// Under-filled entry: 2 < k postings guarantees a memory miss.
	ingest(t, eng, 11, "cold")
	ingest(t, eng, 12, "cold")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	res, err := eng.Search(query.Request[string]{Keys: []string{"cold"}, Op: query.OpSingle, K: 5, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryHit {
		t.Fatal("under-filled entry should miss")
	}
	if tr.Disk == nil {
		t.Fatal("miss trace carries no disk probe")
	}
	if len(tr.Disk.Segments) == 0 {
		t.Fatal("disk probe names no segments")
	}
	for _, sp := range tr.Disk.Segments {
		if sp.Segment == "" {
			t.Fatalf("segment probe without a name: %+v", sp)
		}
		if sp.Pruned {
			continue
		}
		if sp.BloomProbes == 0 && sp.DirProbes == 0 {
			t.Fatalf("segment %s probed nothing", sp.Segment)
		}
	}
	if tr.Disk.CacheHits+tr.Disk.CacheMisses == 0 && tr.Disk.RecordsRead == 0 && tr.Disk.Items > 0 {
		t.Fatal("disk returned items without any recorded reads")
	}
	names := map[string]bool{}
	for _, st := range tr.Stages {
		names[st.Name] = true
	}
	if !names["memory"] || !names["disk"] || !names["total"] {
		t.Fatalf("missing stages, got %v", tr.Stages)
	}

	// The traced path must return the same answer as the untraced one.
	plain, err := eng.Search(query.Request[string]{Keys: []string{"cold"}, Op: query.OpSingle, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Items) != len(res.Items) {
		t.Fatalf("traced answer %d items, untraced %d", len(res.Items), len(plain.Items))
	}
}

func TestJournalRecordsKFlushingCycle(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	for i := 1; i <= 50; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%7))
	}
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	evs := flushLog(t, eng)
	if len(evs) == 0 {
		t.Fatal("journal recorded no cycles")
	}
	ev := evs[len(evs)-1]
	if ev.Trigger != blackbox.TriggerManual.String() {
		t.Fatalf("trigger = %q, want %q", ev.Trigger, blackbox.TriggerManual)
	}
	if len(ev.Phases) == 0 {
		t.Fatal("cycle has no phases")
	}
	if ev.Phases[0].Phase != 1 || ev.Phases[0].Name != "regular" {
		t.Fatalf("first phase = %+v", ev.Phases[0])
	}
	var phaseFreed int64
	for _, ph := range ev.Phases {
		if ph.Nanos < 0 || ph.Victims < 0 {
			t.Fatalf("bad phase %+v", ph)
		}
		phaseFreed += ph.Freed
	}
	if phaseFreed != ev.Freed {
		t.Fatalf("phase freed sum %d != cycle freed %d", phaseFreed, ev.Freed)
	}
	if ev.Satisfied != (ev.Freed >= ev.Target) {
		t.Fatalf("satisfied flag inconsistent: %+v", ev)
	}
	if ev.ID == 0 || ev.Start == 0 || !ev.Complete {
		t.Fatalf("unsealed event published: %+v", ev)
	}
}

func TestJournalRecordsBudgetTrigger(t *testing.T) {
	eng := newKeywordEngine(t, 32<<10, core.New[string](), false)
	for i := 1; i <= 500; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%11))
	}
	var sawBudget bool
	for _, ev := range flushLog(t, eng) {
		if ev.Trigger == blackbox.TriggerBudget.String() {
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Fatal("no budget-triggered cycle in the journal")
	}
}

func TestJournalBaselinePhaseNames(t *testing.T) {
	cases := []struct {
		pol  policy.Policy[string]
		name string
	}{
		{policy.NewFIFO[string](8 << 10), "fifo-segments"},
		{policy.NewLRU[string](), "lru-tail"},
	}
	for _, tc := range cases {
		eng := newKeywordEngine(t, 1<<30, tc.pol, false)
		for i := 1; i <= 50; i++ {
			ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%7))
		}
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
		evs := flushLog(t, eng)
		if len(evs) == 0 {
			t.Fatalf("%s: no journal events", tc.name)
		}
		ev := evs[len(evs)-1]
		if len(ev.Phases) != 1 || ev.Phases[0].Name != tc.name || ev.Phases[0].Phase != 0 {
			t.Fatalf("%s: phases = %+v", tc.name, ev.Phases)
		}
		if ev.Phases[0].Victims == 0 {
			t.Fatalf("%s: zero victims after flushing data", tc.name)
		}
	}
}

// BenchmarkSearchTraceDisabled measures the query hot path with tracing
// off (req.Trace == nil): the nil-guarded branches must add no
// allocations (run with -benchmem; allocs/op must match the pre-trace
// baseline).
func BenchmarkSearchTraceDisabled(b *testing.B) {
	eng := benchEngine(b)
	req := query.Request[string]{Keys: []string{"hot"}, Op: query.OpSingle, K: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTraceEnabled is the comparison point: the same query
// with a live trace, paying the diagnostic allocations.
func BenchmarkSearchTraceEnabled(b *testing.B) {
	eng := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := query.Request[string]{Keys: []string{"hot"}, Op: query.OpSingle, K: 5, Trace: trace.New()}
		if _, err := eng.Search(req); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(b *testing.B) *Engine[string] {
	b.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  1 << 30,
		FlushFraction: 0.2,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       b.TempDir(),
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	for i := 1; i <= 200; i++ {
		key := fmt.Sprintf("k%d", i%13)
		if i%5 == 0 {
			key = "hot"
		}
		mb := &types.Microblog{Timestamp: types.Timestamp(i), Keywords: []string{key}, Text: "text"}
		if _, err := eng.Ingest(mb); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}
