//go:build failpoint

package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// TestDegradedEntryDumpsBlackbox drives a persistent flush failure into
// degraded mode and checks the transition edge automatically snapshotted
// the flight recorder to the tier directory: the dump file exists, is
// decodable, carries reason "degraded", and holds the events that
// preceded the failure (the ingest batches and the degraded-enter edge
// itself) in strictly increasing sequence order.
func TestDegradedEntryDumpsBlackbox(t *testing.T) {
	eng := newFaultEngine(t, disk.RetryPolicy{Attempts: 1})
	for i := 0; i < 50; i++ {
		ingest(t, eng, int64(i+1), "a", "all")
	}
	mustEnable(t, failpoint.DiskSegmentWrite, "error")
	if _, err := eng.FlushNow(); err == nil {
		t.Fatal("flush succeeded despite persistent segment-write fault")
	}
	if degraded, _ := eng.Degraded(); !degraded {
		t.Fatal("engine not degraded after persistent flush failure")
	}

	matches, err := filepath.Glob(filepath.Join(eng.cfg.DiskDir, "blackbox-degraded-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("found %d degraded dump files in %s, want 1", len(matches), eng.cfg.DiskDir)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var df blackbox.DumpFile
	if err := json.Unmarshal(data, &df); err != nil {
		t.Fatalf("decode dump: %v", err)
	}
	if df.Reason != "degraded" {
		t.Fatalf("dump reason = %q, want degraded", df.Reason)
	}
	if len(df.Events) == 0 {
		t.Fatal("degraded dump carries no events")
	}
	seen := map[string]bool{}
	var lastSeq uint64
	for _, ev := range df.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("dump events out of sequence order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen[ev.Event] = true
	}
	for _, want := range []string{"ingest_batch", "degraded_enter"} {
		if !seen[want] {
			t.Errorf("dump missing %q event (events preceding the failure must be captured)", want)
		}
	}
	// The dump names the failing cycle: its last event is the degraded
	// entry, under the cycle's ID with the cause as its note, and the
	// dump alone folds into that cycle's record.
	enter := df.Events[len(df.Events)-1]
	cycles := blackbox.FlushCycles(df.Events, df.EpochUnixNanos)
	if len(cycles) != 1 {
		t.Fatalf("dump folds into %d flush cycles, want the one that failed", len(cycles))
	}
	if c := cycles[0]; enter.Event != "degraded_enter" || enter.ID != c.ID || enter.Note == "" || enter.Note != c.Err || !c.Complete {
		t.Fatalf("dump ends with %+v, the failed cycle is %+v", enter, c)
	}
}
