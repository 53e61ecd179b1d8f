package kflushing_test

import (
	"runtime"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/gen"
)

// TestModelTracksHeapPerResidentRecord checks the memory model against
// the heap: 100 000 generated records, each with freshly allocated text
// and keyword strings as a parsed request has, go into a keyword system
// whose budget they never reach, so every record stays resident. The Go
// heap they add, per record, must be within [0.85, 1.35] of what the
// model charges for them (Used() per record). The memsize constants are
// the model; this pins how far the heap strays from it.
func TestModelTracksHeapPerResidentRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 100 000 records")
	}
	const n = 100_000
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{MemoryBudget: 1 << 30, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Error(err)
		}
	}()
	g := gen.New(gen.DefaultConfig())
	before := liveHeap()
	for i := 0; i < n; i++ {
		m := g.Next()
		for j, kw := range m.Keywords {
			m.Keywords[j] = strings.Clone(kw)
		}
		m.Text = strings.Clone(m.Text)
		if _, err := sys.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	st := sys.Stats()
	if st.Metrics.Flushes != 0 || st.StoreRecords != n {
		t.Fatalf("%d flushes, %d records resident; want 0 and %d", st.Metrics.Flushes, st.StoreRecords, n)
	}
	heap := float64(after-before) / n
	model := float64(st.MemoryUsed) / n
	t.Logf("per resident record: %.0f B heap, %.0f B model (ratio %.3f)", heap, model, heap/model)
	if r := heap / model; r < 0.85 || r > 1.35 {
		t.Fatalf("per resident record: %.0f B heap vs %.0f B model, ratio %.3f outside [0.85, 1.35]", heap, model, r)
	}
	// The generator's keyword and Zipf tables are live at before: they
	// must stay live through after, or the heap they free is subtracted
	// from the records'.
	runtime.KeepAlive(g)
	runtime.KeepAlive(sys)
}

// liveHeap is the heap live after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
