package trace

import (
	"encoding/json"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Stage("memory", time.Now())
	tr.AddEntry(EntryProbe{Key: "x"})
	dp := tr.BeginDisk()
	if dp != nil {
		t.Fatal("nil trace returned a disk probe")
	}
	dp.AddSegment(SegmentProbe{Segment: "seg"})
}

func TestNilTraceAllocFree(t *testing.T) {
	var tr *Trace
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		tr.Stage("memory", start)
		tr.AddEntry(EntryProbe{Key: "x", Found: true})
		tr.BeginDisk().AddSegment(SegmentProbe{})
	})
	if allocs != 0 {
		t.Fatalf("nil trace allocated %.1f per op", allocs)
	}
}

func TestDiskProbeFoldsSegmentCounters(t *testing.T) {
	tr := New()
	dp := tr.BeginDisk()
	// One goroutine: the disk search that fills a probe is sequential.
	for i := 0; i < 8; i++ {
		dp.AddSegment(SegmentProbe{Segment: "s", CacheHits: 1, CacheMisses: 2, RecordsRead: 3})
	}
	if len(dp.Segments) != 8 {
		t.Fatalf("segments = %d", len(dp.Segments))
	}
	if dp.CacheHits != 8 || dp.CacheMisses != 16 || dp.RecordsRead != 24 {
		t.Fatalf("counters not folded: %+v", dp)
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := New()
	tr.Op, tr.K, tr.Keys = "single", 5, []string{"cold"}
	tr.AddEntry(EntryProbe{Key: "cold", Found: true, Postings: 2})
	dp := tr.BeginDisk()
	dp.AddSegment(SegmentProbe{Segment: "seg-00000001.kfs", BloomProbes: 1, BloomPassed: true, DirProbes: 1, Candidates: 2, RecordsRead: 2, Items: 2})
	dp.Items = 2
	tr.Stage("total", time.Now())

	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"op", "k", "keys", "entries", "memory_hit", "disk", "items", "stages"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("trace JSON missing %q: %s", key, b)
		}
	}
	disk := m["disk"].(map[string]any)
	segs := disk["segments"].([]any)
	if len(segs) != 1 {
		t.Fatalf("disk JSON: %v", disk)
	}
	seg := segs[0].(map[string]any)
	if seg["segment"] != "seg-00000001.kfs" {
		t.Fatalf("segment JSON: %v", seg)
	}
	for _, key := range []string{"bloom_probes", "bloom_skips", "bloom_passed", "dir_probes", "cache_hits", "cache_misses", "records_read"} {
		if _, ok := seg[key]; !ok {
			t.Fatalf("segment JSON missing %q: %v", key, seg)
		}
	}
}
