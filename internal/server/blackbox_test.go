package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"kflushing"
	"kflushing/internal/blackbox"
)

// timelineResp mirrors the /debug/blackbox JSON body.
type timelineResp struct {
	EpochUnixNanos int64                     `json:"epoch_unix_nanos"`
	Events         []kflushing.TimelineEvent `json:"events"`
}

// events strips the attribute labels, for the views.
func (tl timelineResp) events() []kflushing.BlackboxEvent {
	out := make([]kflushing.BlackboxEvent, len(tl.Events))
	for i, ev := range tl.Events {
		out[i] = ev.Event
	}
	return out
}

func getTimeline(t *testing.T, h http.Handler, path string) timelineResp {
	t.Helper()
	rw := do(t, h, http.MethodGet, path, "")
	if rw.Code != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, rw.Code, rw.Body.String())
	}
	var tl timelineResp
	if err := json.Unmarshal(rw.Body.Bytes(), &tl); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return tl
}

// TestDebugBlackboxTimeline drives a durable store through ingestion,
// flush cycles, and a compaction, then checks /debug/blackbox serves the
// merged flight-recorder timeline: strictly increasing global sequence
// numbers across attribute systems, with one flush cycle's WAL appends,
// pipeline stages (prepare/build/install), and disk-tier compaction all
// correlated in a single stream, plus working attr/subsystem/n filters.
func TestDebugBlackboxTimeline(t *testing.T) {
	st, err := OpenStore(t.TempDir(), kflushing.Options{
		MemoryBudget:   8 << 20,
		K:              5,
		SyncFlush:      true,
		Durable:        true,
		WALSyncEvery:   1,
		SlowQueryNanos: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	h := st.Handler()

	// Two ingest/flush rounds leave two keyword segments, so the full
	// compaction below has inputs to merge (and a compact_pass to record).
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			if _, err := st.Ingest(&kflushing.Microblog{
				Keywords: []string{fmt.Sprintf("k%d", i%7), "all"},
				UserID:   uint64(i%5 + 1),
				Text:     "post",
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.kw.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.kw.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SearchKeywords([]string{"all"}, kflushing.OpSingle, 5); err != nil {
		t.Fatal(err)
	}

	tl := getTimeline(t, h, "/debug/blackbox?n=100000")
	if tl.EpochUnixNanos == 0 {
		t.Fatal("timeline missing epoch anchor")
	}
	if len(tl.Events) == 0 {
		t.Fatal("timeline empty")
	}
	var lastSeq uint64
	firstOf := map[string]uint64{}
	attrs := map[string]bool{}
	for _, ev := range tl.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("timeline out of sequence order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		attrs[ev.Attr] = true
		if _, ok := firstOf[ev.Event.Event]; !ok {
			firstOf[ev.Event.Event] = ev.Seq
		}
	}
	// One flush cycle's cross-subsystem story must be present and causal:
	// the WAL covered the records before the flush pipeline staged them,
	// and compaction follows the installs it merges.
	for _, want := range []string{"ingest_batch", "wal_append", "wal_sync",
		"flush_prepare", "flush_build", "flush_install", "compact_pass"} {
		if _, ok := firstOf[want]; !ok {
			t.Errorf("timeline missing %q event", want)
		}
	}
	if firstOf["wal_append"] >= firstOf["flush_build"] {
		t.Errorf("WAL append (seq %d) does not precede flush build (seq %d)",
			firstOf["wal_append"], firstOf["flush_build"])
	}
	if firstOf["flush_install"] >= firstOf["compact_pass"] {
		t.Errorf("flush install (seq %d) does not precede compaction (seq %d)",
			firstOf["flush_install"], firstOf["compact_pass"])
	}
	if !attrs["keyword"] || !attrs["user"] {
		t.Errorf("timeline attrs = %v, want keyword and user systems interleaved", attrs)
	}

	// Subsystem filter: only WAL events survive.
	walOnly := getTimeline(t, h, "/debug/blackbox?subsystem=wal&n=100000")
	if len(walOnly.Events) == 0 {
		t.Fatal("subsystem=wal filtered everything out")
	}
	for _, ev := range walOnly.Events {
		if ev.Subsystem != "wal" {
			t.Fatalf("subsystem=wal returned %q event", ev.Subsystem)
		}
	}
	// Attr filter: only the keyword system's events survive.
	kwOnly := getTimeline(t, h, "/debug/blackbox?attr=keyword&n=100000")
	if len(kwOnly.Events) == 0 {
		t.Fatal("attr=keyword filtered everything out")
	}
	for _, ev := range kwOnly.Events {
		if ev.Attr != "keyword" {
			t.Fatalf("attr=keyword returned %q event", ev.Attr)
		}
	}
	// n bounds the response to the most recent events.
	bounded := getTimeline(t, h, "/debug/blackbox?n=3")
	if len(bounded.Events) != 3 {
		t.Fatalf("n=3 returned %d events", len(bounded.Events))
	}
	if bounded.Events[len(bounded.Events)-1].Seq != lastSeq {
		t.Fatal("n=3 did not keep the most recent events")
	}
	// Bad filters are rejected.
	for _, bad := range []string{
		"/debug/blackbox?subsystem=bogus",
		"/debug/blackbox?attr=bogus",
		"/debug/blackbox?n=0",
	} {
		if rw := do(t, h, http.MethodGet, bad, ""); rw.Code != http.StatusBadRequest {
			t.Errorf("GET %s status %d, want 400", bad, rw.Code)
		}
	}

	// The 1 ns threshold made every search slow: the query subsystem's
	// events are the slow-query log, on the same timeline as the flush
	// cycles, and the facade's view agrees with the endpoint's.
	queries := getTimeline(t, h, "/debug/blackbox?attr=keyword&subsystem=query")
	slow := blackbox.SlowQueries(queries.events(), queries.EpochUnixNanos)
	if len(slow) == 0 {
		t.Fatal("no slow queries captured despite 1 ns threshold")
	}
	for _, sq := range slow {
		if sq.Keys != "all" || sq.NumKeys != 1 || sq.DurationNanos <= 0 || sq.Seq == 0 || sq.ID == 0 ||
			sq.IndexNanos+sq.HeapNanos+sq.DiskNanos > sq.DurationNanos || sq.UnixNanos < queries.EpochUnixNanos {
			t.Fatalf("malformed slow query: %+v", sq)
		}
	}
	if local := st.kw.SlowQueries(); !reflect.DeepEqual(local, slow) {
		t.Fatalf("SlowQueries() = %+v, the endpoint's events fold to %+v", local, slow)
	}
	byID := getTimeline(t, h, fmt.Sprintf("/debug/blackbox?id=%d", slow[0].ID))
	if len(byID.Events) != 1 || byID.Events[0].Event.Event != "query_slow" || byID.Events[0].Note != "all" {
		t.Fatalf("?id= of a slow query = %+v, want its one query_slow event", byID.Events)
	}
}
