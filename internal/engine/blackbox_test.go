package engine

import (
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// newObservedEngine builds a durable keyword engine whose flight
// recorder sees all three instrumented layers: ingest batches, WAL
// appends and syncs (SyncEvery=1), and flush stages.
func newObservedEngine(t *testing.T, slowQueryNanos int64) *Engine[string] {
	t.Helper()
	dir := t.TempDir()
	eng, err := New(Config[string]{
		K:              5,
		MemoryBudget:   1 << 30,
		FlushFraction:  0.5,
		KeysOf:         attr.KeywordKeys,
		KeyHash:        attr.HashString,
		KeyLen:         attr.KeywordLen,
		EncodeKey:      attr.KeywordEncode,
		DecodeKey:      attr.KeywordDecode,
		Clock:          clock.NewLogical(1, 1),
		DiskDir:        dir,
		Durable:        true,
		WALOptions:     wal.Options{SyncEvery: 1},
		Policy:         core.New[string](),
		TrackOverK:     true,
		SyncFlush:      true,
		SlowQueryNanos: slowQueryNanos,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// flushLog is the engine's flush log: the view over its flight
// recorder's flush ring, every cycle held to the timing invariants.
func flushLog[K comparable](t testing.TB, e *Engine[K]) []blackbox.FlushCycle {
	t.Helper()
	cycles := blackbox.FlushCycles(e.Blackbox().EventsOf(blackbox.SubFlush), blackbox.EpochUnixNanos())
	for i := range cycles {
		if err := cycles[i].CheckTimings(); err != nil {
			t.Fatal(err)
		}
	}
	return cycles
}

// slowQueries is the engine's slow-query log: the view over its flight
// recorder, every entry's stages held to its total.
func slowQueries(t *testing.T, e *Engine[string]) []blackbox.SlowQuery {
	t.Helper()
	slow := blackbox.SlowQueries(e.Blackbox().Events(), blackbox.EpochUnixNanos())
	for _, sq := range slow {
		if sum := sq.IndexNanos + sq.HeapNanos + sq.DiskNanos; sum > sq.DurationNanos {
			t.Fatalf("slow query %d: stages take %d ns of a %d ns search", sq.ID, sum, sq.DurationNanos)
		}
	}
	return slow
}

// TestBlackboxFlushCycleTimeline drives records through ingest, WAL, and
// a flush cycle, then checks the recorder's merged view reads as one
// causal, sequence-ordered story: the WAL appends covering the records
// precede the flush cycle's prepare/build/install events, and every
// subsystem the cycle touched is present.
func TestBlackboxFlushCycleTimeline(t *testing.T) {
	eng := newObservedEngine(t, 0)
	for i := 0; i < 30; i++ {
		ingest(t, eng, int64(i+1), "a", "all")
	}
	if _, err := eng.FlushNow(); err != nil {
		t.Fatalf("FlushNow: %v", err)
	}

	events := eng.Blackbox().Events()
	if len(events) == 0 {
		t.Fatal("recorder captured no events")
	}
	var lastSeq uint64
	firstOf := map[string]uint64{}
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("merged events out of sequence order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if _, ok := firstOf[ev.Event]; !ok {
			firstOf[ev.Event] = ev.Seq
		}
	}
	for _, want := range []string{"ingest_batch", "wal_append", "wal_sync",
		"flush_prepare", "flush_build", "flush_install"} {
		if _, ok := firstOf[want]; !ok {
			t.Fatalf("no %q event in timeline (got %v)", want, firstOf)
		}
	}
	if firstOf["wal_append"] >= firstOf["flush_build"] {
		t.Fatalf("WAL append (seq %d) does not precede flush build (seq %d)",
			firstOf["wal_append"], firstOf["flush_build"])
	}
	if firstOf["flush_build"] >= firstOf["flush_install"] {
		t.Fatalf("flush build (seq %d) does not precede install (seq %d)",
			firstOf["flush_build"], firstOf["flush_install"])
	}

	// Every flush fact is emitted once, by one call site, under the
	// cycle's ID: one FlushNow is one event per stage.
	log := flushLog(t, eng)
	if len(log) != 1 {
		t.Fatalf("%d cycles in the flush log after one FlushNow", len(log))
	}
	count := map[string]int{}
	for _, ev := range events {
		if ev.Subsystem != "flush" {
			continue
		}
		count[ev.Event]++
		if ev.ID != log[0].ID {
			t.Fatalf("%s carries ID %d, the cycle's is %d", ev.Event, ev.ID, log[0].ID)
		}
	}
	for _, stage := range []string{"flush_begin", "flush_prepare", "flush_build", "flush_install", "flush_release", "flush_end"} {
		if count[stage] != 1 {
			t.Fatalf("%d %s events in one cycle, want 1", count[stage], stage)
		}
	}
}

// withoutRecorder detaches the engine's flight recorder. No
// configuration does this — the recorder is always on — but every call
// site relies on a nil *Recorder being a no-op, and the overhead
// benchmark needs the baseline.
func withoutRecorder(e *Engine[string]) *Engine[string] {
	e.bbox = nil
	return e
}

// TestBlackboxDisabled pins the nil-recorder contract at engine level: a
// recorder-less engine works end to end and reports an empty timeline.
func TestBlackboxDisabled(t *testing.T) {
	eng := withoutRecorder(newObservedEngine(t, 1))
	ingest(t, eng, 1, "a")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatalf("FlushNow: %v", err)
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 5}); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if evs := eng.Blackbox().Events(); len(evs) != 0 {
		t.Fatalf("disabled recorder returned %d events", len(evs))
	}
	if log := flushLog(t, eng); len(log) != 0 {
		t.Fatalf("disabled recorder yields a flush log: %+v", log)
	}
}

// TestSlowQueryAutoCapture sets a 1 ns threshold so every search is
// "slow" and must land in the slow-query view — one entry each, with its
// timings and keys, on the same sequence as every other event.
func TestSlowQueryAutoCapture(t *testing.T) {
	eng := newObservedEngine(t, 1)
	// zz's one posting goes to disk ranked above all of a's, so an OR
	// over both is a miss.
	ingest(t, eng, 100, "zz")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatalf("FlushNow: %v", err)
	}
	for i := 0; i < 10; i++ {
		ingest(t, eng, int64(i+1), "a")
	}
	before := blackbox.NextSeq()
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a", "zz"}, Op: query.OpOr, K: 5}); err != nil {
		t.Fatalf("Search: %v", err)
	}
	slow := slowQueries(t, eng)
	if len(slow) != 1 {
		t.Fatalf("slow log holds %d entries after one slow search, want 1", len(slow))
	}
	sq := slow[0]
	if sq.DurationNanos <= 0 {
		t.Fatalf("slow query duration = %d, want > 0", sq.DurationNanos)
	}
	if sq.Keys != "a zz" || sq.NumKeys != 2 || sq.Op != "or" || sq.K != 5 || sq.MemoryHit {
		t.Fatalf("slow query = %+v, want the OR miss over a and zz at k=5", sq)
	}
	if sq.DiskNanos <= 0 {
		t.Fatalf("a memory miss recorded no disk stage: %+v", sq)
	}
	if sq.ID <= before || sq.Seq <= sq.ID {
		t.Fatalf("slow query id %d seq %d not drawn from the global ticket (at %d before the search)", sq.ID, sq.Seq, before)
	}
}

// TestSlowQueryDisabledByDefault checks that without a threshold no
// search leaves a query_slow event.
func TestSlowQueryDisabledByDefault(t *testing.T) {
	eng := newObservedEngine(t, 0)
	ingest(t, eng, 1, "a")
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 5}); err != nil {
		t.Fatalf("Search: %v", err)
	}
	for _, ev := range eng.Blackbox().Events() {
		if ev.Event == "query_slow" {
			t.Fatalf("query_slow recorded without a threshold: %+v", ev)
		}
	}
	if got := slowQueries(t, eng); len(got) != 0 {
		t.Fatalf("slow-query view returned %d entries", len(got))
	}
}

// BenchmarkIngestBlackboxOverhead measures sustained single-record
// ingestion with the flight recorder on and detached, backing the ≤1%
// overhead budget (EXPERIMENTS.md "PR 23").
func BenchmarkIngestBlackboxOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		eng, err := New(Config[string]{
			K:             5,
			MemoryBudget:  1 << 40, // never flush: isolate the ingest path
			FlushFraction: 0.2,
			KeysOf:        attr.KeywordKeys,
			KeyHash:       attr.HashString,
			KeyLen:        attr.KeywordLen,
			EncodeKey:     attr.KeywordEncode,
			DecodeKey:     attr.KeywordDecode,
			Clock:         clock.NewLogical(1, 1),
			DiskDir:       b.TempDir(),
			Policy:        core.New[string](),
			TrackOverK:    true,
			SyncFlush:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if !enabled {
			withoutRecorder(eng)
		}
		kws := []string{"bench"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Ingest(&types.Microblog{Keywords: kws, Text: "t"}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("enabled", func(b *testing.B) { run(b, true) })
	b.Run("disabled", func(b *testing.B) { run(b, false) })
}
