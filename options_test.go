package kflushing_test

import (
	"fmt"
	"testing"

	"kflushing"
)

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := kflushing.Open(t.TempDir(), kflushing.Options{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := kflushing.OpenSpatial(t.TempDir(), nil, kflushing.Options{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted by spatial system")
	}
	if _, err := kflushing.OpenUser(t.TempDir(), kflushing.Options{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted by user system")
	}
}

func TestZeroOptionsGetPaperDefaults(t *testing.T) {
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	st := sys.Stats()
	if st.K != 20 {
		t.Fatalf("default k = %d, want 20", st.K)
	}
	if st.Policy != "kflushing" {
		t.Fatalf("default policy = %q", st.Policy)
	}
	if st.MemoryBudget != 64<<20 {
		t.Fatalf("default budget = %d", st.MemoryBudget)
	}
}

// TestHugeBudgetOpens opens a store with a 1 TiB budget: the departure
// record, a budget share, stops at its cap instead of asking for 16 GiB
// up front, and the store ingests and answers.
func TestHugeBudgetOpens(t *testing.T) {
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{MemoryBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Ingest(&kflushing.Microblog{Keywords: []string{"a"}, UserID: 1}); err != nil {
		t.Fatal(err)
	}
	if res, err := sys.SearchKeyword("a", 5); err != nil || len(res.Items) != 1 {
		t.Fatalf("search: %d items, %v", len(res.Items), err)
	}
	if st := sys.Stats(); st.PolicyOverhead > 32<<20 {
		t.Fatalf("policy overhead %d bytes at a 1 TiB budget", st.PolicyOverhead)
	}
}

// TestDynamicKAcrossFlushes exercises Section IV-C: k changes take
// effect for queries immediately and for flushing on the next cycle;
// decreasing k lets existing memory serve the smaller answers, and
// increasing k catches up as new data arrives.
func TestDynamicKAcrossFlushes(t *testing.T) {
	sys := newSystem(t, kflushing.PolicyKFlushing, 256<<10)
	feed := func(n int, tsBase int64) {
		for i := 0; i < n; i++ {
			if _, err := sys.Ingest(mb(tsBase+int64(i), fmt.Sprintf("k%d", i%5), "hot")); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(3000, 1)

	// Decrease k: immediate full answers from existing memory.
	sys.SetK(3)
	res, err := sys.SearchKeyword("hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || len(res.Items) != 3 {
		t.Fatalf("after SetK(3): hit=%v items=%d", res.MemoryHit, len(res.Items))
	}

	// Increase k: entries were trimmed to the old k, so initially the
	// answer may need disk; after more stream arrives and flush cycles
	// run with the new k, memory catches up (the paper's "missed data
	// will be caught up quickly").
	sys.SetK(40)
	feed(3000, 10_000)
	res, err = sys.SearchKeyword("hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 40 {
		t.Fatalf("after SetK(40)+catch-up: items=%d", len(res.Items))
	}
	if !res.MemoryHit {
		t.Fatalf("memory did not catch up to the larger k")
	}
}
