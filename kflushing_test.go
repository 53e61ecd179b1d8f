package kflushing_test

import (
	"fmt"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/gen"
)

// newSystem opens a keyword system in a test temp dir with deterministic
// inline flushing and a small budget so flushes actually happen.
func newSystem(t *testing.T, pol kflushing.PolicyKind, budget int64) *kflushing.System {
	t.Helper()
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{
		Policy:       pol,
		MemoryBudget: budget,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", pol, err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sys
}

func mb(ts int64, kws ...string) *kflushing.Microblog {
	return &kflushing.Microblog{
		Timestamp: kflushing.Timestamp(ts),
		UserID:    1,
		Keywords:  kws,
		Text:      "body",
	}
}

func TestSystemBasicSearch(t *testing.T) {
	sys := newSystem(t, kflushing.PolicyKFlushing, 1<<30)
	for i := 1; i <= 50; i++ {
		if _, err := sys.Ingest(mb(int64(i), "go", fmt.Sprintf("extra%d", i%5))); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	res, err := sys.SearchKeyword("go", 10)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.MemoryHit {
		t.Errorf("expected memory hit, got miss")
	}
	if len(res.Items) != 10 {
		t.Fatalf("got %d items, want 10", len(res.Items))
	}
	// Temporal ranking: most recent first.
	for i, it := range res.Items {
		want := kflushing.Timestamp(int64(50 - i))
		if it.MB.Timestamp != want {
			t.Errorf("item %d: timestamp = %d, want %d", i, it.MB.Timestamp, want)
		}
	}
}

// TestLongKeywordSurvivesReopen: nothing bounds a client keyword's
// length, and a directory once wrote key lengths as u16, so a keyword of
// 64 KiB or more made the store fail its next open as corrupt.
func TestLongKeywordSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opt := kflushing.Options{K: 2, SyncFlush: true}
	sys, err := kflushing.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 70_000)
	id, err := sys.Ingest(mb(1, long, "short"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := kflushing.Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for _, key := range []string{long, "short"} {
		res, err := re.SearchKeyword(key, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != 1 || res.Items[0].MB.ID != id {
			t.Fatalf("search for a %d-byte key after the reopen: %d items, want record %d", len(key), len(res.Items), id)
		}
	}
}

func TestSystemRejectsNoKeywords(t *testing.T) {
	sys := newSystem(t, kflushing.PolicyKFlushing, 1<<30)
	if _, err := sys.Ingest(&kflushing.Microblog{Text: "no tags"}); err == nil {
		t.Fatal("expected error for microblog without keywords")
	}
}

func TestSystemFlushAndDiskFallback(t *testing.T) {
	for _, pol := range []kflushing.PolicyKind{
		kflushing.PolicyKFlushing, kflushing.PolicyKFlushingMK,
		kflushing.PolicyFIFO, kflushing.PolicyLRU,
	} {
		t.Run(string(pol), func(t *testing.T) {
			sys := newSystem(t, pol, 256<<10) // tiny budget: many flushes
			g := gen.New(gen.Config{
				Seed: 7, Vocab: 2000, KeywordSkew: 0.95, GroupSize: 4,
				RelatedProb: 0.5, Users: 500, UserSkew: 0.95,
				GeoFraction: 0, RatePerSec: 6000, MeanTextLen: 80,
			})
			for i := 0; i < 20_000; i++ {
				if _, err := sys.Ingest(g.Next()); err != nil {
					t.Fatalf("Ingest %d: %v", i, err)
				}
			}
			st := sys.Stats()
			if st.Metrics.Flushes == 0 {
				t.Fatalf("no flushes happened with tiny budget; used=%d", st.MemoryUsed)
			}
			if st.Disk.Segments == 0 {
				t.Fatalf("no disk segments written")
			}
			if st.MemoryUsed > 2*256<<10 {
				t.Errorf("memory used %d far above budget", st.MemoryUsed)
			}
			// A popular keyword should hit memory; a cold one should
			// fall back to disk and still return ranked answers.
			res, err := sys.SearchKeyword("tag00000", 20)
			if err != nil {
				t.Fatalf("popular search: %v", err)
			}
			if len(res.Items) != 20 {
				t.Errorf("popular keyword returned %d items, want 20", len(res.Items))
			}
			for i := 1; i < len(res.Items); i++ {
				if res.Items[i-1].Score < res.Items[i].Score {
					t.Fatalf("answers not ranked at %d", i)
				}
			}
			if err := sys.Err(); err != nil {
				t.Fatalf("flush error: %v", err)
			}
		})
	}
}

func TestSystemDynamicK(t *testing.T) {
	sys := newSystem(t, kflushing.PolicyKFlushing, 1<<30)
	for i := 1; i <= 100; i++ {
		if _, err := sys.Ingest(mb(int64(i), "kw")); err != nil {
			t.Fatal(err)
		}
	}
	sys.SetK(5)
	res, err := sys.SearchKeyword("kw", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 {
		t.Fatalf("after SetK(5): got %d items, want 5", len(res.Items))
	}
}
