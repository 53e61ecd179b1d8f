package bench

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.05, 10}, {1, 100}} {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of no samples = %d, want 0", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestStartAndLag(t *testing.T) {
	ms := time.Millisecond
	// Idle driver, timer woke it 2 ms late: the clock starts at the
	// wake-up and the 2 ms are the generator's.
	if from, lag := StartAndLag(10*ms, 4*ms, 12*ms); from != 12*ms || lag != 2*ms {
		t.Errorf("idle, late wake: from %v lag %v, want 12ms 2ms", from, lag)
	}
	// Idle driver woken on time.
	if from, lag := StartAndLag(10*ms, 4*ms, 10*ms); from != 10*ms || lag != 0 {
		t.Errorf("idle, punctual wake: from %v lag %v, want 10ms 0", from, lag)
	}
	// Busy driver: the previous operation ran 5 ms past this one's slot.
	// That wait is the system's, so latency runs from the due time.
	if from, lag := StartAndLag(10*ms, 15*ms, 15*ms); from != 10*ms || lag != 0 {
		t.Errorf("busy driver: from %v lag %v, want 10ms 0", from, lag)
	}
}

func TestAmplification(t *testing.T) {
	if got := Amplification(300, 100); got != 3 {
		t.Errorf("Amplification(300, 100) = %v, want 3", got)
	}
	if got := Amplification(300, 0); got != 0 {
		t.Errorf("Amplification with no payload = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, the acceptance procedure's
// definition of spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	for _, c := range []struct{ got, want float64 }{{q1, 1.75}, {med, 3.5}, {q3, 5.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("Quartiles = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
			break
		}
	}
}

func TestWriteMeterCountsRenamesOnceAndRewritesInFull(t *testing.T) {
	dir := t.TempDir()
	m := newWriteMeter(dir)
	write := func(name string, n int) {
		t.Helper()
		if err := writeFile(dir, name, n); err != nil {
			t.Fatal(err)
		}
	}
	write("seg-1.kfs.tmp", 100)
	m.sample()
	if err := renameFile(dir, "seg-1.kfs.tmp", "seg-1.kfs"); err != nil {
		t.Fatal(err)
	}
	write("wal/wal-1.kfw", 40)
	m.sample()
	if got := m.written(); got.tier != 100 || got.wal != 40 {
		t.Fatalf("after rename: written %+v, want tier 100 wal 40", got)
	}
	// A compaction rewrites the segment into a new file and unlinks it.
	write("lvl-2.kfs", 90)
	if err := removeFile(dir, "seg-1.kfs"); err != nil {
		t.Fatal(err)
	}
	m.sample()
	if got := m.written(); got.tier != 190 {
		t.Fatalf("after compaction: tier written %d, want 190", got.tier)
	}
	if m.now.tier != 90 || m.now.wal != 40 {
		t.Fatalf("on disk now %+v, want tier 90 wal 40", m.now)
	}
}
