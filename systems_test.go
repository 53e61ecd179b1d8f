package kflushing_test

import (
	"fmt"
	"testing"

	"kflushing"
)

func TestSpatialSystemEndToEnd(t *testing.T) {
	sys, err := kflushing.OpenSpatial(t.TempDir(), nil, kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		K:            5,
		MemoryBudget: 1 << 20,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Posts at two distinct locations.
	for i := 1; i <= 10; i++ {
		_, err := sys.Ingest(&kflushing.Microblog{
			Timestamp: kflushing.Timestamp(i),
			HasGeo:    true, Lat: 40.0, Lon: -90.0,
			Keywords: []string{"x"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Ingest(&kflushing.Microblog{
		Timestamp: 11, HasGeo: true, Lat: 30.0, Lon: -80.0,
	}); err != nil {
		t.Fatal(err)
	}

	res, err := sys.SearchAt(40.0, -90.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || len(res.Items) != 5 {
		t.Fatalf("hit=%v items=%d", res.MemoryHit, len(res.Items))
	}
	for _, it := range res.Items {
		if it.MB.Lat != 40.0 {
			t.Fatalf("wrong-tile record in answer: %v", it.MB)
		}
	}

	// Non-geotagged records are rejected.
	if _, err := sys.Ingest(&kflushing.Microblog{Keywords: []string{"x"}}); err == nil {
		t.Fatal("non-geotagged record accepted by spatial system")
	}

	// OR across two tiles unions both.
	g := sys.Grid()
	res, err = sys.SearchCells([]kflushing.Cell{
		g.CellOf(40.0, -90.0), g.CellOf(30.0, -80.0),
	}, kflushing.OpOr, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 11 {
		t.Fatalf("OR union returned %d items", len(res.Items))
	}
}

func TestUserSystemEndToEnd(t *testing.T) {
	sys, err := kflushing.OpenUser(t.TempDir(), kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		K:            3,
		MemoryBudget: 1 << 20,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for i := 1; i <= 10; i++ {
		if _, err := sys.Ingest(&kflushing.Microblog{
			Timestamp: kflushing.Timestamp(i),
			UserID:    uint64(i%2 + 1),
			Text:      fmt.Sprintf("post %d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.SearchUser(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || len(res.Items) != 3 {
		t.Fatalf("hit=%v items=%d", res.MemoryHit, len(res.Items))
	}
	for _, it := range res.Items {
		if it.MB.UserID != 1 {
			t.Fatalf("wrong user in timeline: %v", it.MB)
		}
	}
	// Timeline order: most recent first.
	if res.Items[0].MB.Timestamp < res.Items[1].MB.Timestamp {
		t.Fatal("timeline not in reverse-chronological order")
	}
}

// TestUserSystemSkipsAnonymousPosts pins the documented contract: user 0
// is "no posting user". Such a record is rejected by Ingest, skipped
// (zero ID) by IngestBatch, and never files a user-0 timeline.
func TestUserSystemSkipsAnonymousPosts(t *testing.T) {
	sys, err := kflushing.OpenUser(t.TempDir(), kflushing.Options{K: 3, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if id, err := sys.Ingest(&kflushing.Microblog{Text: "anonymous"}); err == nil {
		t.Fatalf("Ingest accepted a record without a posting user (ID %d)", id)
	}
	ids, err := sys.IngestBatch([]*kflushing.Microblog{
		{UserID: 5, Text: "signed"},
		{Text: "anonymous"},
		{UserID: 5, Text: "signed again"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] == 0 || ids[1] != 0 || ids[2] == 0 {
		t.Fatalf("IngestBatch IDs = %v, want the anonymous record (index 1) skipped with a zero ID", ids)
	}
	if got := sys.Stats().StoreRecords; got != 2 {
		t.Fatalf("store holds %d records, want 2", got)
	}
	res, err := sys.SearchUser(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Fatalf("user 0 has a timeline of %d items", len(res.Items))
	}
}

// TestMKRaisesANDHits verifies the Section IV-D claim end to end: on
// the same stream and the same AND queries, kFlushing-MK answers more
// AND queries from memory than base kFlushing.
//
// The stream reproduces the paper's Figure 6 situation at scale: for
// each pair (hotN, nicheN), every "niche" record also carries the "hot"
// keyword, and a later burst of single-keyword records pushes the shared
// records beyond hot's top-k. Base kFlushing trims them from the hot
// entry (AND misses); MK retains them there while they are top-k in the
// niche entry, and what the hot entry lost — older shared records — ranks
// below them, so memory's intersection is provably the answer.
//
// When the single-keyword records are interleaved with the shared ones
// instead, hot loses singles that outrank the shared records MK keeps,
// so no memory answer is provably exact under either policy: both go to
// disk. MK still keeps the intersection in memory, which the trace shows.
func TestMKRaisesANDHits(t *testing.T) {
	const pairs, k = 40, 10
	run := func(pol kflushing.PolicyKind, burst bool) (hits, intersected int) {
		sys := newSystem(t, pol, 1<<20)
		ts := int64(0)
		ingest := func(kws ...string) {
			ts++
			if _, err := sys.Ingest(mb(ts, kws...)); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 200; round++ {
			for p := 0; p < pairs; p++ {
				ingest(fmt.Sprintf("hot%d", p), fmt.Sprintf("niche%d", p))
				for s := 0; s < 3 && !burst; s++ {
					ingest(fmt.Sprintf("hot%d", p))
				}
			}
		}
		for s := 0; s < 15 && burst; s++ {
			for p := 0; p < pairs; p++ {
				ingest(fmt.Sprintf("hot%d", p))
			}
		}
		// Query immediately after a flush cycle, the steady state the
		// policies shape (between flushes entries regrow identically
		// under both policies).
		if _, err := sys.FlushNow(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pairs; p++ {
			res, tr, err := sys.SearchTraced(
				[]string{fmt.Sprintf("hot%d", p), fmt.Sprintf("niche%d", p)}, kflushing.OpAnd, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.MemoryHit {
				hits++
			}
			if tr.MemoryItems >= k {
				intersected++
			}
		}
		return hits, intersected
	}
	base, _ := run(kflushing.PolicyKFlushing, true)
	mk, _ := run(kflushing.PolicyKFlushingMK, true)
	t.Logf("AND memory hits after a burst: kflushing=%d kflushing-mk=%d", base, mk)
	if mk <= base {
		t.Errorf("MK extension did not raise AND hits: base=%d mk=%d", base, mk)
	}
	base, baseIn := run(kflushing.PolicyKFlushing, false)
	mk, mkIn := run(kflushing.PolicyKFlushingMK, false)
	t.Logf("interleaved: AND memory hits kflushing=%d kflushing-mk=%d, intersections reaching k %d / %d",
		base, mk, baseIn, mkIn)
	if mkIn <= baseIn {
		t.Errorf("MK extension did not keep AND intersections in memory: base=%d mk=%d", baseIn, mkIn)
	}
}

// TestDiskRecoveryAcrossReopen verifies that a system reopened over an
// existing disk directory still serves flushed data.
func TestDiskRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opt := kflushing.Options{
		Policy:       kflushing.PolicyFIFO,
		K:            5,
		MemoryBudget: 64 << 10,
		SyncFlush:    true,
	}
	sys, err := kflushing.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2000; i++ {
		if _, err := sys.Ingest(mb(int64(i), fmt.Sprintf("k%d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().Disk.Segments == 0 {
		t.Fatal("no segments flushed")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := kflushing.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Memory is empty; the answer must come from recovered segments.
	res, err := re.SearchKeyword("k1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryHit {
		t.Fatal("fresh system reported memory hit")
	}
	if len(res.Items) != 5 {
		t.Fatalf("recovered search returned %d items", len(res.Items))
	}
}

func TestSpatialSearchRadius(t *testing.T) {
	sys, err := kflushing.OpenSpatial(t.TempDir(), nil, kflushing.Options{
		K: 5, MemoryBudget: 1 << 20, SyncFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Two posts ~3 miles apart: different tiles, same 5-mile radius.
	if _, err := sys.Ingest(&kflushing.Microblog{
		Timestamp: 1, HasGeo: true, Lat: 40.00, Lon: -90.00,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ingest(&kflushing.Microblog{
		Timestamp: 2, HasGeo: true, Lat: 40.04, Lon: -90.00,
	}); err != nil {
		t.Fatal(err)
	}
	point, err := sys.SearchAt(40.00, -90.00, 5)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := sys.SearchRadius(40.00, -90.00, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(point.Items) != 1 {
		t.Fatalf("point query found %d", len(point.Items))
	}
	if len(radius.Items) != 2 {
		t.Fatalf("radius query found %d, want 2", len(radius.Items))
	}
	if radius.Items[0].MB.Timestamp != 2 {
		t.Fatal("radius results not ranked by recency")
	}
}
