package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(1 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 100*time.Nanosecond || mean > time.Millisecond {
		t.Fatalf("Mean = %v", mean)
	}
	// Median bucket upper bound must be near 100ns (within 2x).
	if q := h.Quantile(0.5); q < 100*time.Nanosecond || q > 400*time.Nanosecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(1.0); q < time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramSubNanosecond(t *testing.T) {
	var h Histogram
	h.Observe(0) // clamped to 1ns
	if h.Count() != 1 {
		t.Fatal("zero duration dropped")
	}
}

func TestRecordQueryBreakdown(t *testing.T) {
	var r Registry
	r.RecordQuery("single", HitFilled, time.Microsecond)
	r.RecordQuery("single", Miss, time.Millisecond)
	r.RecordQuery("or", HitFilled, time.Microsecond)
	r.RecordQuery("and", Miss, time.Millisecond)
	r.RecordQuery("and", HitComplete, time.Microsecond)
	r.RecordQuery("single", HitComplete, time.Microsecond)
	s := r.Snap()
	if s.Queries != 6 || s.Hits != 4 || s.Misses != 2 {
		t.Fatalf("totals: %+v", s)
	}
	if s.FilledHits != 2 || s.CompleteHits != 2 {
		t.Fatalf("hits by reason: %+v", s)
	}
	if s.SingleHits != 2 || s.SingleMisses != 1 || s.SingleCompleteHits != 1 ||
		s.OrHits != 1 || s.OrCompleteHits != 0 || s.AndHits != 1 || s.AndMisses != 1 || s.AndCompleteHits != 1 {
		t.Fatalf("breakdown: %+v", s)
	}
	if s.HitRatio != 4.0/6 {
		t.Fatalf("HitRatio = %v", s.HitRatio)
	}
	if s.MeanHit == 0 || s.MeanMiss == 0 || s.P99Hit == 0 {
		t.Fatalf("latency summary empty: %+v", s)
	}
}

func TestHitRatioNoQueries(t *testing.T) {
	var r Registry
	if r.HitRatio() != 0 {
		t.Fatal("hit ratio with no queries")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(o Outcome) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RecordQuery("single", o, time.Microsecond)
			}
		}(Outcome(w % 3))
	}
	wg.Wait()
	s := r.Snap()
	if s.Queries != 8000 || s.Misses != 3000 || s.FilledHits != 3000 || s.CompleteHits != 2000 || s.Hits != 5000 {
		t.Fatalf("concurrent totals: %+v", s)
	}
}

func TestHistogramBucketContract(t *testing.T) {
	// Bucket i must hold observations in [2^i, 2^(i+1)) nanoseconds.
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{1, 0},                 // 1ns -> [1,2)
		{2, 1},                 // 2ns -> [2,4)
		{3, 1},                 // 3ns -> [2,4)
		{4, 2},                 // 4ns -> [4,8)
		{1023, 9},              // just under 2^10
		{1024, 10},             // exactly 2^10
		{time.Microsecond, 9},  // 1000ns -> [512,1024)
		{time.Millisecond, 19}, // 1e6ns -> [2^19, 2^20)
		{time.Second, 29},      // 1e9ns -> [2^29, 2^30)
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.d)
		s := h.Snap()
		for i, c := range s.Counts {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Fatalf("Observe(%dns): bucket %d = %d, want bucket %d occupied", tc.d.Nanoseconds(), i, c, tc.bucket)
			}
		}
	}
}

func TestHistogramClampsToLastBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Duration(1) << 62) // far beyond 2^48ns
	s := h.Snap()
	if s.Counts[HistBuckets-1] != 1 {
		t.Fatal("oversized observation not clamped into the last bucket")
	}
}

func TestBucketUpperNanos(t *testing.T) {
	if BucketUpperNanos(0) != 2 || BucketUpperNanos(9) != 1024 {
		t.Fatalf("edges: %d %d", BucketUpperNanos(0), BucketUpperNanos(9))
	}
	for i := 1; i < HistBuckets; i++ {
		if BucketUpperNanos(i) != 2*BucketUpperNanos(i-1) {
			t.Fatalf("edges not doubling at %d", i)
		}
	}
}

func TestSnapCountMatchesBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snap()
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if s.Count != sum {
		t.Fatalf("Snap.Count %d != bucket sum %d", s.Count, sum)
	}
	if s.Count != h.Count() {
		t.Fatalf("Snap.Count %d != live count %d (quiescent)", s.Count, h.Count())
	}
	if s.Sum <= 0 {
		t.Fatal("Snap.Sum not positive")
	}
}

func TestSnapshotHistsExcludedFromJSON(t *testing.T) {
	var r Registry
	r.FlushLatency.Observe(time.Millisecond)
	b, err := json.Marshal(r.Snap())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Counts") {
		t.Fatalf("histogram snapshot leaked into JSON: %s", b)
	}
}
