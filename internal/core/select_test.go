package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"kflushing/internal/attr"
	"kflushing/internal/index"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// buildSelectorIndex creates n single-posting entries with the given
// timestamps (entry i named k<i> with arrival ts[i]).
func buildSelectorIndex(ts []int64) *index.Index[string] {
	ix := index.New(index.Config[string]{
		Hash:       attr.HashString,
		KeyLen:     attr.KeywordLen,
		K:          5,
		TrackOverK: true,
	})
	for i, t := range ts {
		mb := &types.Microblog{
			ID:        types.ID(i + 1),
			Timestamp: types.Timestamp(t),
			Keywords:  []string{"k" + string(rune('A'+i%26)) + string(rune('0'+i/26))},
		}
		ix.Insert(mb.Keywords[0], store.NewRecord(mb, float64(t)))
	}
	return ix
}

func classifyArrival(e *index.Entry[string]) (int, int64, bool) {
	return 0, int64(e.LastArrival()), true
}

// TestSelectorProperties checks the invariants both victim selectors
// must satisfy: victims are real candidates ordered least-recent first,
// and their estimated freeable bytes meet the target whenever the whole
// candidate set can.
func TestSelectorProperties(t *testing.T) {
	selectors := map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	}
	f := func(seed int64, nRaw, targetRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 1
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = int64(rng.Intn(1_000_000) + 1)
		}
		ix := buildSelectorIndex(ts)

		// Total freeable across all candidates.
		var totalAvail int64
		ix.Range(func(e *index.Entry[string]) bool {
			totalAvail += e.FreeableBytes()
			return true
		})
		target := int64(targetRaw) * 8

		for name, sel := range selectors {
			victims := sel.Select(ix, target, classifyArrival)
			var sum int64
			last := int64(-1 << 62)
			for _, e := range victims {
				if int64(e.LastArrival()) < last {
					t.Logf("%s: victims not in ascending recency", name)
					return false
				}
				last = int64(e.LastArrival())
				sum += e.FreeableBytes()
			}
			if target <= totalAvail && sum < target {
				t.Logf("%s: freeable %d < achievable target %d", name, sum, target)
				return false
			}
			if target > totalAvail && len(victims) != n {
				t.Logf("%s: target unachievable but not all candidates selected", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectorPrefersOldest verifies that with distinct timestamps and a
// one-entry target, both selectors pick the oldest entry first.
func TestSelectorPrefersOldest(t *testing.T) {
	ts := []int64{500, 100, 900, 300, 700}
	for name, sel := range map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	} {
		ix := buildSelectorIndex(ts)
		victims := sel.Select(ix, 1, classifyArrival)
		if len(victims) == 0 || victims[0].LastArrival() != 100 {
			t.Errorf("%s: first victim arrival = %v, want 100", name, victims)
		}
	}
}

// TestSelectorEmptyIndex covers the degenerate cases.
func TestSelectorEmptyIndex(t *testing.T) {
	ix := buildSelectorIndex(nil)
	for name, sel := range map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	} {
		if v := sel.Select(ix, 1000, classifyArrival); len(v) != 0 {
			t.Errorf("%s: victims from empty index: %v", name, v)
		}
	}
}

// phase2Classify is the real Phase 2 predicate: an entry is a victim
// candidate only while it holds fewer than k postings (and is alive).
func phase2Classify(k int) Classifier[string] {
	return func(e *index.Entry[string]) (int, int64, bool) {
		n := e.Len()
		if n == 0 || n >= k {
			return 0, 0, false
		}
		return 0, int64(e.LastArrival()), true
	}
}

// TestSelectorEmptyCandidateSet feeds a populated index through a
// classify that rejects every entry (the Phase 2 predicate with k=1:
// nothing is below k). Both selectors must return nothing rather than
// fall back to unclassified entries.
func TestSelectorEmptyCandidateSet(t *testing.T) {
	ts := []int64{400, 100, 300, 200, 500, 700, 600}
	for name, sel := range map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	} {
		ix := buildSelectorIndex(ts)
		if v := sel.Select(ix, 1_000_000, phase2Classify(1)); len(v) != 0 {
			t.Errorf("%s: %d victims from an empty candidate set", name, len(v))
		}
	}
}

// TestSelectorAllEntriesBelowK is the Phase 2 shape where every entry
// qualifies (all single-posting, k=5) and the target exceeds the total
// freeable bytes: both selectors must surrender every entry, least
// recently arrived first, instead of looping or stopping short.
func TestSelectorAllEntriesBelowK(t *testing.T) {
	ts := []int64{400, 100, 300, 200, 500, 700, 600, 900, 800}
	for name, sel := range map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	} {
		ix := buildSelectorIndex(ts)
		victims := sel.Select(ix, 1<<40, phase2Classify(5))
		if len(victims) != len(ts) {
			t.Fatalf("%s: %d victims, want all %d", name, len(victims), len(ts))
		}
		last := int64(-1)
		for _, e := range victims {
			if int64(e.LastArrival()) < last {
				t.Errorf("%s: victims not in ascending arrival order", name)
			}
			last = int64(e.LastArrival())
		}
	}
}

// shardOf locates the index shard holding entry e.
func shardOf(t *testing.T, ix *index.Index[string], target *index.Entry[string]) int {
	t.Helper()
	for i := 0; i < ix.ShardCount(); i++ {
		found := false
		ix.RangeShard(i, func(e *index.Entry[string]) bool {
			if e == target {
				found = true
				return false
			}
			return true
		})
		if found {
			return i
		}
	}
	t.Fatalf("entry %q not found in any shard", target.Key())
	return -1
}

// TestSelectorBudgetExactAtShardBoundary sets the target to the exact
// freeable sum of the j oldest entries, with j chosen so the last
// admitted entry and the first excluded one live in different index
// shards — the cut crosses a shard boundary, which is where the
// shard-parallel scan could plausibly over- or under-collect. All
// entries share one key length, so every freeable estimate is equal and
// the minimal victim set is exactly the j oldest; both selectors must
// hit the target with not one entry more.
func TestSelectorBudgetExactAtShardBoundary(t *testing.T) {
	const n = 32
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64((i*7)%n + 1) // distinct arrivals, scrambled
	}
	ix := buildSelectorIndex(ts)

	// Entries ordered by arrival, oldest first.
	var byAge []*index.Entry[string]
	ix.Range(func(e *index.Entry[string]) bool {
		byAge = append(byAge, e)
		return true
	})
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].LastArrival() < byAge[j].LastArrival() })

	fb := byAge[0].FreeableBytes()
	for _, e := range byAge {
		if got := e.FreeableBytes(); got != fb {
			t.Fatalf("freeable bytes differ (%d vs %d); fixture needs uniform entries", got, fb)
		}
	}

	// The first age-adjacent pair split across shards marks the cut.
	j := -1
	for i := 0; i+1 < len(byAge); i++ {
		if shardOf(t, ix, byAge[i]) != shardOf(t, ix, byAge[i+1]) {
			j = i + 1
			break
		}
	}
	if j < 1 {
		t.Skip("all entries hashed into one shard; boundary case unreachable")
	}
	target := int64(j) * fb

	for name, sel := range map[string]Selector[string]{
		"heap": HeapSelector[string]{},
		"sort": SortSelector[string]{},
	} {
		victims := sel.Select(ix, target, classifyArrival)
		if len(victims) != j {
			t.Errorf("%s: %d victims for an exactly-satisfiable target, want %d", name, len(victims), j)
			continue
		}
		var sum int64
		for i, e := range victims {
			if e != byAge[i] {
				t.Errorf("%s: victim %d is %q, want oldest-first %q", name, i, e.Key(), byAge[i].Key())
			}
			sum += e.FreeableBytes()
		}
		if sum != target {
			t.Errorf("%s: freeable sum %d, want exactly %d", name, sum, target)
		}
	}
}

// TestSelectorTiesIndependentOfWorkers seeds an index where most entries
// share their arrival timestamp with several others (what one record
// creating several entries produces) and key lengths vary, so freeable
// estimates differ. Selection must be a function of the candidate set
// alone: a sequential scan, a 4-worker scan and the sort baseline return
// the identical victim list at every target, whatever order map
// iteration and scheduling delivered the candidates in — with one class,
// and with two classes that cut across the tied timestamps, as Phase 2's
// stale and other classes do. Run with -count=20.
func TestSelectorTiesIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ix := index.New(index.Config[string]{
		Hash:   attr.HashString,
		KeyLen: attr.KeywordLen,
		K:      5,
	})
	var totalAvail int64
	for i := 0; i < 400; i++ {
		ts := int64(rng.Intn(40) + 1) // ~10 entries per timestamp
		key := fmt.Sprintf("k%d-%s", i, strings.Repeat("x", rng.Intn(24)))
		mb := &types.Microblog{ID: types.ID(i + 1), Timestamp: types.Timestamp(ts), Keywords: []string{key}}
		ix.Insert(key, store.NewRecord(mb, float64(ts)))
		totalAvail += ix.Entry(key).FreeableBytes()
	}
	// Every third key, by its number, is in the first class.
	mixed := func(e *index.Entry[string]) (int, int64, bool) {
		var n int
		fmt.Sscanf(e.Key(), "k%d-", &n)
		return min(n%3, 1), int64(e.LastArrival()), true
	}
	for cname, classify := range map[string]Classifier[string]{"one-class": classifyArrival, "mixed": mixed} {
		for _, target := range []int64{1, totalAvail / 7, totalAvail / 2, totalAvail - 1, totalAvail * 2} {
			want := HeapSelector[string]{Workers: 1}.Select(ix, target, classify)
			if len(want) == 0 {
				t.Fatalf("%s target %d: sequential scan selected nothing", cname, target)
			}
			for name, sel := range map[string]Selector[string]{
				"heap/workers=4": HeapSelector[string]{Workers: 4},
				"heap/workers=1": HeapSelector[string]{Workers: 1}, // a second map-iteration order
				"sort/workers=4": SortSelector[string]{Workers: 4},
			} {
				got := sel.Select(ix, target, classify)
				if len(got) != len(want) {
					t.Fatalf("%s target %d %s: %d victims, sequential %d", cname, target, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s target %d %s: victim %d is %q, sequential %q",
							cname, target, name, i, got[i].Key(), want[i].Key())
					}
				}
			}
			if cname != "mixed" {
				continue
			}
			// The first class comes out whole before the second begins.
			seenSecond := false
			for i, e := range want {
				class, _, _ := mixed(e)
				if class == 0 && seenSecond {
					t.Fatalf("mixed target %d: victim %d (%q) is first-class after a second-class victim", target, i, e.Key())
				}
				seenSecond = seenSecond || class == 1
			}
		}
	}
}
