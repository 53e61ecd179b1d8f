package blackbox

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kflushing/internal/query"
)

// newSized builds a recorder whose every ring has n slots, small enough
// for a test to wrap.
func newSized(n int) *Recorder { return newRecorder(n, n) }

// TestNilRecorderSafe pins the disabled-recorder contract: every method
// on a nil *Recorder is a no-op, never a panic, and the views of its
// (nil) snapshot are empty.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(SubIngest, EvIngestBatch, 1, 2, 3)
	r.RecordID(SubFlush, EvFlushBegin, 7, 0, 1, 2, 3)
	r.RecordNote(SubFlush, EvFlushEnd, 7, 0, 1, 2, 3, "boom")
	r.RecordSlowQuery(query.OpOr, 5, 2, false, 1, 2, 3, 10, "a b")
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder Events = %v, want nil", evs)
	}
	if evs := r.EventsOf(SubWAL); evs != nil {
		t.Fatalf("nil recorder EventsOf = %v, want nil", evs)
	}
	if path, err := r.Dump(t.TempDir(), "test"); err != nil || path != "" {
		t.Fatalf("nil recorder Dump = (%q, %v), want empty", path, err)
	}
	if c := FlushCycles(r.Events(), 0); len(c) != 0 {
		t.Fatalf("nil recorder FlushCycles = %v, want none", c)
	}
	if q := SlowQueries(r.Events(), 0); len(q) != 0 {
		t.Fatalf("nil recorder SlowQueries = %v, want none", q)
	}
}

// TestRecordAllocs pins the hot-path contract the acceptance criteria
// name: recording an event performs zero heap allocations.
func TestRecordAllocs(t *testing.T) {
	r := newSized(256)
	avg := testing.AllocsPerRun(1000, func() {
		r.Record(SubIngest, EvIngestBatch, 16, 0, 1200)
	})
	if avg != 0 {
		t.Fatalf("Record allocates %.2f objects/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		r.RecordID(SubFlush, EvFlushPhase, 42, PhaseRegular, 16, 4096, 1200)
	})
	if avg != 0 {
		t.Fatalf("RecordID allocates %.2f objects/op, want 0", avg)
	}
}

// TestEventDecoding checks that argument words come back under their
// schema labels and unused words are omitted, and that an event's ID,
// fourth argument and note survive the slot.
func TestEventDecoding(t *testing.T) {
	r := newSized(8)
	r.Record(SubWAL, EvWALAppend, 7, 4096, 1500)
	r.Record(SubState, EvDegradedEnter, 0, 0, 0)
	r.RecordID(SubFlush, EvFlushPhase, 99, PhaseForced, 12, 3400, 870)
	r.RecordNote(SubFlush, EvFlushEnd, 99, 1, 3400, 60_000, 9000, "segment write: no space")
	r.RecordNote(SubFlush, EvFlushEnd, 100, maxD, -1, 0, 0, "")
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("Events len = %d, want 5", len(evs))
	}
	phase, end, plain := evs[2], evs[3], evs[4]
	if phase.ID != 99 || phase.Note != "" || !reflect.DeepEqual(phase.Args,
		map[string]int64{"phase": PhaseForced, "victims": 12, "freed_bytes": 3400, "nanos": 870}) {
		t.Errorf("flush_phase = %+v", phase)
	}
	if end.ID != 99 || end.Note != "segment write: no space" || end.Args["durable"] != 1 || end.Args["mem_after_bytes"] != 60_000 {
		t.Errorf("flush_end = %+v", end)
	}
	if plain.ID != 100 || plain.Note != "" || plain.Args["durable"] != maxD || plain.Args["freed_bytes"] != -1 {
		t.Errorf("flush_end at the fourth argument's limit = %+v", plain)
	}
	if evs[0].ID != 0 || evs[0].Note != "" {
		t.Errorf("standalone event carries id %d note %q", evs[0].ID, evs[0].Note)
	}
	ap := evs[0]
	if ap.Subsystem != "wal" || ap.Event != "wal_append" {
		t.Fatalf("event 0 = %+v, want wal/wal_append", ap)
	}
	want := map[string]int64{"frames": 7, "bytes": 4096, "nanos": 1500}
	for k, v := range want {
		if ap.Args[k] != v {
			t.Errorf("args[%s] = %d, want %d", k, ap.Args[k], v)
		}
	}
	if evs[1].Args != nil {
		t.Errorf("degraded_enter args = %v, want none", evs[1].Args)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Errorf("seq order broken: %d then %d", evs[0].Seq, evs[1].Seq)
	}
}

// TestRingWrap fills a ring far past capacity and checks only the
// newest size events survive, still in sequence order.
func TestRingWrap(t *testing.T) {
	const size = 16
	r := newSized(size)
	for i := 0; i < 5*size; i++ {
		r.Record(SubFlush, EvFlushBuild, int64(i), 0, 0)
	}
	evs := r.EventsOf(SubFlush)
	if len(evs) != size {
		t.Fatalf("EventsOf len = %d, want %d", len(evs), size)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// The survivors are the last size records.
	if got := evs[len(evs)-1].Args["records"]; got != 5*size-1 {
		t.Errorf("newest surviving event records = %d, want %d", got, 5*size-1)
	}
	if got := evs[0].Args["records"]; got != 4*size {
		t.Errorf("oldest surviving event records = %d, want %d", got, 4*size)
	}
}

// TestConcurrentWriters is the race battery: many writers hammer every
// subsystem while readers snapshot continuously. Run under -race this
// proves the seqlock publish discipline; the assertions prove no torn
// or duplicated sequence numbers are ever observed.
func TestConcurrentWriters(t *testing.T) {
	r := newSized(64)
	const writers = 8
	const perWriter = 2000
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers: continuous snapshots, checking per-snapshot invariants.
	for i := 0; i < 2; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Events()
				seen := make(map[uint64]bool, len(evs))
				for j, ev := range evs {
					if seen[ev.Seq] {
						t.Errorf("duplicate seq %d in snapshot", ev.Seq)
						return
					}
					seen[ev.Seq] = true
					if j > 0 && evs[j-1].Seq >= ev.Seq {
						t.Errorf("snapshot out of order at %d", j)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				sub := Subsystem(i % int(numSubsystems))
				r.Record(sub, EvIngestBatch, int64(w), int64(i), 0)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
}

// TestMergedTimelineMonotonic is the property test: interleaved
// recording across several recorders still yields one strictly
// increasing merged sequence, and every subsystem's own view is a
// subsequence of the merge.
func TestMergedTimelineMonotonic(t *testing.T) {
	recs := map[string]*Recorder{
		"keyword": newSized(512),
		"spatial": newSized(512),
		"user":    newSized(512),
	}
	names := []string{"keyword", "spatial", "user"}
	for i := 0; i < 300; i++ {
		attr := names[i%len(names)]
		sub := Subsystem(i % int(numSubsystems))
		recs[attr].Record(sub, EvIngestBatch, int64(i), 0, 0)
	}
	byAttr := make(map[string][]Event, len(recs))
	for attr, r := range recs {
		byAttr[attr] = r.Events()
	}
	merged := MergeTimeline(byAttr)
	if len(merged) != 300 {
		t.Fatalf("merged len = %d, want 300", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Seq <= merged[i-1].Seq {
			t.Fatalf("merged seq not strictly increasing at %d", i)
		}
		if merged[i].Nanos < merged[i-1].Nanos {
			t.Fatalf("merged nanos regressed at %d: %d then %d",
				i, merged[i-1].Nanos, merged[i].Nanos)
		}
	}
	// Subsequence property: each attr's events appear in the merge in
	// the same order.
	for attr, evs := range byAttr {
		j := 0
		for _, m := range merged {
			if j < len(evs) && m.Attr == attr && m.Seq == evs[j].Seq {
				j++
			}
		}
		if j != len(evs) {
			t.Errorf("attr %s: only %d/%d events found in merge order", attr, j, len(evs))
		}
	}
}

// TestDump checks the snapshot file: valid JSON, carries the reason and
// epoch anchor, and contains the recorded events in order.
func TestDump(t *testing.T) {
	dir := t.TempDir()
	r := newSized(32)
	r.Record(SubWAL, EvWALAppend, 3, 256, 900)
	r.RecordNote(SubState, EvDegradedEnter, 41, 0, 0, 0, 0, "disk full")
	path, err := r.Dump(dir, "degraded")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(path), "blackbox-degraded-") {
		t.Errorf("dump file name = %s, want blackbox-degraded-* prefix", path)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var df DumpFile
	if err := json.Unmarshal(buf, &df); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if df.Reason != "degraded" || df.EpochUnixNanos == 0 || df.WrittenUnixNanos == 0 {
		t.Fatalf("dump envelope = %+v", df)
	}
	if len(df.Events) != 2 || df.Events[0].Event != "wal_append" || df.Events[1].Event != "degraded_enter" {
		t.Fatalf("dump events = %+v", df.Events)
	}
	if enter := df.Events[1]; enter.ID != 41 || enter.Note != "disk full" {
		t.Fatalf("dumped degraded_enter = %+v, want the failing cycle's ID and the cause", enter)
	}
}

// TestDumperRegistry exercises the process-level registry the panic
// path uses: registered recorders dump, unregistered ones do not.
func TestDumperRegistry(t *testing.T) {
	dir := t.TempDir()
	r := newSized(16)
	r.Record(SubIngest, EvIngestBatch, 1, 0, 0)
	name := fmt.Sprintf("test-%s", t.Name())
	RegisterDumper(name, func(reason string) (string, error) {
		return r.Dump(dir, reason)
	})
	paths := DumpAll("panic")
	var mine []string
	for _, p := range paths {
		if strings.HasPrefix(p, dir) {
			mine = append(mine, p)
		}
	}
	if len(mine) != 1 {
		t.Fatalf("DumpAll wrote %d files in %s, want 1", len(mine), dir)
	}
	UnregisterDumper(name)
	for _, p := range DumpAll("panic") {
		if strings.HasPrefix(p, dir) {
			t.Fatalf("unregistered dumper still wrote %s", p)
		}
	}
}

// BenchmarkRecord measures the hot-path cost of one event; the CI bench
// smoke runs it with -benchmem to keep the 0 allocs/op claim honest.
func BenchmarkRecord(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(SubIngest, EvIngestBatch, 16, 0, 1200)
	}
}

// BenchmarkRecordParallel measures contention on the global sequence
// ticket under parallel writers.
func BenchmarkRecordParallel(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(SubWAL, EvWALAppend, 8, 4096, 900)
		}
	})
}
