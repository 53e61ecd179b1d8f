package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// TestFlightGroupCoalesces drives the singleflight deterministically:
// the second caller for the same key must wait for and share the first
// caller's result instead of executing its own.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	want := []query.Item{{Score: 42}}

	var wg sync.WaitGroup
	wg.Add(1)
	var firstShared bool
	go func() {
		defer wg.Done()
		items, shared, err := g.do("key", func() ([]query.Item, error) {
			close(started)
			<-release
			return want, nil
		})
		firstShared = shared
		if err != nil || len(items) != 1 || items[0].Score != 42 {
			t.Errorf("leader: items=%v err=%v", items, err)
		}
	}()
	<-started // the leader's fn is executing and registered

	wg.Add(1)
	var followerShared bool
	go func() {
		defer wg.Done()
		items, shared, err := g.do("key", func() ([]query.Item, error) {
			t.Error("follower executed its own search")
			return nil, nil
		})
		followerShared = shared
		if err != nil || len(items) != 1 || items[0].Score != 42 {
			t.Errorf("follower: items=%v err=%v", items, err)
		}
	}()
	// Wait until the follower has joined the in-progress flight, then
	// let the leader finish. The leader's own registration keeps
	// pending() at 1, so watch the waiter count instead.
	for i := 0; g.waiters("key") == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.waiters("key") == 0 {
		t.Fatal("follower never joined the flight")
	}
	close(release)
	wg.Wait()

	if firstShared {
		t.Error("leader reported shared result")
	}
	if !followerShared {
		t.Error("follower did not share the leader's flight")
	}
	if g.pending() != 0 {
		t.Errorf("flights leaked: %d pending", g.pending())
	}

	// Different keys never coalesce.
	_, shared, _ := g.do("other", func() ([]query.Item, error) { return nil, nil })
	if shared {
		t.Error("fresh key reported shared")
	}
}

// TestDiskSearchAccounting checks every disk-consulting query increments
// exactly one of the executed/coalesced counters, and that concurrent
// identical misses return consistent answers — with the slow-query
// threshold unset and set: a threshold no search reaches must change
// neither how a miss is served (it still joins an identical miss in
// flight) nor what a memory hit allocates.
func TestDiskSearchAccounting(t *testing.T) {
	hitAllocs := map[int64]float64{}
	for _, threshold := range []int64{0, time.Hour.Nanoseconds()} {
		t.Run(fmt.Sprintf("slow-query=%s", time.Duration(threshold)), func(t *testing.T) {
			eng, err := New(Config[string]{
				K:              5,
				MemoryBudget:   8 << 10,
				FlushFraction:  0.2,
				Attr:           attr.Keyword(),
				Clock:          clock.NewLogical(1, 1),
				DiskDir:        t.TempDir(),
				Policy:         policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
				SyncFlush:      true,
				SlowQueryNanos: threshold,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			// Overfill memory so the one-off filler keys are flushed; the hot
			// "gopher" postings stay resident (kFlushing keeps top-k), so the
			// guaranteed-miss queries below target a filler key instead.
			for i := 0; i < 300; i++ {
				ingest(t, eng, int64(i+1), "gopher", fmt.Sprintf("filler%d", i))
			}
			if _, err := eng.FlushNow(); err != nil {
				t.Fatal(err)
			}

			// filler7 appears in exactly one record; asking for K=5 can never be
			// satisfied from memory, so every query consults disk.
			miss := query.Request[string]{Keys: []string{"filler7"}, K: 5}
			const goroutines, perG = 8, 20
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						res, err := eng.Search(miss)
						if err != nil {
							t.Error(err)
							return
						}
						if len(res.Items) == 0 {
							t.Error("filler7 query returned no items")
							return
						}
					}
				}()
			}
			wg.Wait()

			// A miss that finds an identical one in flight joins it. The
			// flight is held open here, so the join is certain, not a race
			// the scheduler may or may not stage.
			coalescedBefore := eng.Metrics().Snap().DiskSearchesCoalesced
			key := eng.flightKey(miss.Keys, miss.Op, miss.K)
			inFlight, release := make(chan struct{}), make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _, _ = eng.flights.do(key, func() ([]query.Item, error) {
					close(inFlight)
					<-release
					return []query.Item{{MB: &types.Microblog{ID: 1 << 40}, Score: 42}}, nil
				})
			}()
			<-inFlight
			go func() {
				defer wg.Done()
				res, err := eng.Search(miss)
				if err != nil || len(res.Items) != 1 || res.Items[0].MB.ID != 1<<40 {
					t.Errorf("joined search: items=%v err=%v, want the flight's answer", res.Items, err)
				}
			}()
			for i := 0; eng.flights.waiters(key) == 0 && i < 5000; i++ {
				time.Sleep(time.Millisecond)
			}
			joined := eng.flights.waiters(key)
			close(release)
			wg.Wait()
			if joined == 0 {
				t.Fatal("a miss never joined the identical miss in flight: coalescing is bypassed")
			}

			snap := eng.Metrics().Snap()
			misses := snap.Misses
			if misses == 0 {
				t.Fatal("no memory misses; the disk fallback was never exercised")
			}
			if snap.DiskSearchesCoalesced <= coalescedBefore {
				t.Fatalf("DiskSearchesCoalesced = %d after a certain join, was %d", snap.DiskSearchesCoalesced, coalescedBefore)
			}
			if got := snap.DiskSearches + snap.DiskSearchesCoalesced; got != misses {
				t.Fatalf("DiskSearches(%d) + Coalesced(%d) = %d, want %d (one per miss)",
					snap.DiskSearches, snap.DiskSearchesCoalesced, got, misses)
			}
			if snap.DiskSearches == 0 {
				t.Fatal("no disk search was ever executed")
			}

			hit := query.Request[string]{Keys: []string{"gopher"}, K: 5}
			if res, err := eng.Search(hit); err != nil || !res.MemoryHit {
				t.Fatalf("gopher search: hit=%v err=%v, want a memory hit", res.MemoryHit, err)
			}
			hitAllocs[threshold] = testing.AllocsPerRun(200, func() { _, _ = eng.Search(hit) })
			for _, ev := range eng.Blackbox().Events() {
				if ev.Event == "query_slow" {
					t.Fatalf("query_slow below the threshold: %+v", ev)
				}
			}
		})
	}
	if len(hitAllocs) == 2 && hitAllocs[0] != hitAllocs[time.Hour.Nanoseconds()] {
		t.Fatalf("a memory-hit search allocates %.1f objects without a slow-query threshold, %.1f with one",
			hitAllocs[0], hitAllocs[time.Hour.Nanoseconds()])
	}
}

// TestFlightKeysInjective: two searches share a flight only when they
// ask the same (keys, op, k). Keywords are client bytes, 0x00 included
// (ingest takes them verbatim and /search URL-decodes %00), and k is any
// int, so neither a separator byte nor a truncated k may name a flight.
func TestFlightKeysInjective(t *testing.T) {
	eng := newBackgroundEngine(t, 1<<20)
	type search struct {
		keys []string
		op   query.Op
		k    int
	}
	searches := []search{
		{[]string{"a\x00b", "c"}, query.OpOr, 5},
		{[]string{"a", "b\x00c"}, query.OpOr, 5},
		{[]string{"a", "b", "c"}, query.OpOr, 5},
		{[]string{"a", "b", "c"}, query.OpAnd, 5},
		{[]string{"a"}, query.OpSingle, 20},
		{[]string{"a"}, query.OpSingle, 20 + 1<<24},
		{[]string{"a", ""}, query.OpOr, 20},
		{[]string{"", "a"}, query.OpOr, 20},
	}
	seen := map[string]int{}
	for i, s := range searches {
		key := eng.flightKey(s.keys, s.op, s.k)
		if j, dup := seen[key]; dup {
			t.Errorf("%q %v k=%d shares a flight with %q %v k=%d",
				s.keys, s.op, s.k, searches[j].keys, searches[j].op, searches[j].k)
		}
		seen[key] = i
		if again := eng.flightKey(s.keys, s.op, s.k); again != key {
			t.Errorf("%q %v k=%d names two flights", s.keys, s.op, s.k)
		}
	}
}
