package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/index"
	"kflushing/internal/metrics"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/ranking"
	"kflushing/internal/trace"
	"kflushing/internal/types"
)

func newKeywordEngine(t *testing.T, budget int64, pol policy.Policy[string], trackTopK bool) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: 0.2,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Policy:        policy.Choice[string]{Policy: pol, TrackTopK: trackTopK, TrackOverK: true},
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func ingest(t *testing.T, e *Engine[string], ts int64, kws ...string) types.ID {
	t.Helper()
	id, err := e.Ingest(&types.Microblog{
		Timestamp: types.Timestamp(ts),
		Keywords:  kws,
		Text:      "text",
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return id
}

func TestConfigValidation(t *testing.T) {
	kf := core.New[string]()
	for _, tc := range []struct {
		name  string
		cfg   Config[string]
		field string
	}{
		{"empty", Config[string]{}, "Attr"},
		{"without policy", Config[string]{Attr: attr.Keyword(), Policy: policy.Choice[string]{TrackOverK: true}}, "Policy"},
		{"zero Attr", Config[string]{Policy: policy.Choice[string]{Policy: kf, TrackOverK: true}}, "Attr"},
		{"zero Choice", Config[string]{Attr: attr.Keyword(), Policy: policy.Choice[string]{}}, "Policy"},
	} {
		_, err := New(tc.cfg)
		if err == nil {
			t.Fatalf("%s: config accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// TestChoiceSetsIndexFeatures: the index features an engine keeps are
// the ones its policy Choice names — kFlushing-MK's top-k counters and
// over-k list, and neither for FIFO.
func TestChoiceSetsIndexFeatures(t *testing.T) {
	for _, tc := range []struct {
		name        string
		topK, overK bool
	}{
		{core.NameKFlushingMK, true, true},
		{core.NameFIFO, false, false},
	} {
		c, err := core.Choose[string](tc.name, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config[string]{K: 5, Attr: attr.Keyword(), DiskDir: t.TempDir(), Policy: c, SyncFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		for i := 0; i < 7; i++ { // over k = 5
			ingest(t, eng, int64(i+1), "hot")
		}
		if got := eng.Index().TrackTopK(); got != tc.topK {
			t.Errorf("%s: TrackTopK = %v, want %v", tc.name, got, tc.topK)
		}
		if got := eng.Index().OverKLen() > 0; got != tc.overK {
			t.Errorf("%s: over-k list holds an entry = %v, want %v", tc.name, got, tc.overK)
		}
	}
}

func TestIngestAssignsIDsAndTimestamps(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	id1 := ingest(t, eng, 0, "a") // zero timestamp: engine assigns
	id2 := ingest(t, eng, 0, "a")
	if id2 != id1+1 {
		t.Fatalf("ids not sequential: %d then %d", id1, id2)
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("%d items", len(res.Items))
	}
	if res.Items[0].MB.Timestamp <= 0 {
		t.Fatal("timestamp not assigned")
	}
}

func TestSearchEmptyKeysRejected(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	if _, err := eng.Search(query.Request[string]{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestSingleKeyOpCoercion(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	ingest(t, eng, 1, "a")
	// An AND query with one key behaves as single.
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}, Op: query.OpAnd, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !res.MemoryHit {
		t.Fatalf("single-key AND: items=%d hit=%v", len(res.Items), res.MemoryHit)
	}
}

func TestMissFallsBackToDisk(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	for i := 1; i <= 10; i++ {
		ingest(t, eng, int64(i), "hot")
	}
	ingest(t, eng, 11, "cold")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	// Evict everything via repeated forced flushes.
	for i := 0; i < 20; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"hot"}, Op: query.OpSingle, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryHit {
		// Acceptable if phase 3 kept the entry; then we cannot test
		// the disk path this way.
		t.Skip("entry survived forced flushes")
	}
	if !res.DiskChecked {
		t.Fatal("miss did not check disk")
	}
	if len(res.Items) != 5 {
		t.Fatalf("disk fallback returned %d items, want 5", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Score < res.Items[i].Score {
			t.Fatal("disk results not ranked")
		}
	}
}

func TestAnswerAccuracyAcrossFlushes(t *testing.T) {
	// The union of memory and disk must always contain the true top-k,
	// regardless of flushing (the paper: "the answers are always
	// accurate" because flushed data moves to disk).
	eng := newKeywordEngine(t, 64<<10, core.New[string](), false)
	const n = 2000
	for i := 1; i <= n; i++ {
		kws := []string{fmt.Sprintf("k%d", i%37)}
		if i%3 == 0 {
			kws = append(kws, fmt.Sprintf("k%d", (i+11)%37))
		}
		ingest(t, eng, int64(i), kws...)
	}
	// For each key the true top-5 timestamps are computable: key kI
	// matches records where i%37==I or (i%3==0 && (i+11)%37==I).
	for key := 0; key < 37; key++ {
		var want []int64
		for i := n; i >= 1 && len(want) < 5; i-- {
			if i%37 == key || (i%3 == 0 && (i+11)%37 == key) {
				want = append(want, int64(i))
			}
		}
		res, err := eng.Search(query.Request[string]{Keys: []string{fmt.Sprintf("k%d", key)}, Op: query.OpSingle, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != len(want) {
			t.Fatalf("key k%d: %d items, want %d", key, len(res.Items), len(want))
		}
		for i, it := range res.Items {
			if int64(it.MB.Timestamp) != want[i] {
				t.Fatalf("key k%d rank %d: ts=%d want %d", key, i, it.MB.Timestamp, want[i])
			}
		}
	}
}

func TestFlushTriggersOnBudget(t *testing.T) {
	eng := newKeywordEngine(t, 32<<10, core.New[string](), false)
	for i := 1; i <= 500; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%11))
	}
	if eng.Metrics().Flushes.Load() == 0 {
		t.Fatal("budget exceeded but no flush ran")
	}
	if used := eng.Mem().Used(); used > 2*32<<10 {
		t.Fatalf("memory %d far above budget", used)
	}
}

func TestPopularityRanking(t *testing.T) {
	eng, err := New(Config[string]{
		K:            3,
		MemoryBudget: 1 << 30,
		Attr:         attr.Keyword(),
		Ranker:       ranking.Popularity{},
		DiskDir:      t.TempDir(),
		Policy:       policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	followers := []uint32{10, 500, 50, 900, 1}
	for i, f := range followers {
		if _, err := eng.Ingest(&types.Microblog{
			Timestamp: types.Timestamp(i + 1),
			Followers: f,
			Keywords:  []string{"a"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{900, 500, 50}
	for i, it := range res.Items {
		if it.MB.Followers != want[i] {
			t.Fatalf("rank %d followers=%d, want %d", i, it.MB.Followers, want[i])
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	ingest(t, eng, 1, "a", "b")
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 1}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Policy != "kflushing" || st.K != 5 {
		t.Fatalf("stats header: %+v", st)
	}
	if st.StoreRecords != 1 || st.Census.Entries != 2 {
		t.Fatalf("stats census: %+v", st.Census)
	}
	if st.Metrics.Queries != 1 || st.Metrics.Hits != 1 {
		t.Fatalf("stats metrics: %+v", st.Metrics)
	}
	if st.MemoryUsed <= 0 || st.DataBytes <= 0 || st.IndexBytes <= 0 {
		t.Fatalf("stats gauges: %+v", st)
	}
}

func TestClosedEngineRejectsOperations(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(&types.Microblog{Keywords: []string{"a"}}); err != ErrClosed {
		t.Fatalf("Ingest after close: %v", err)
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}}); err != ErrClosed {
		t.Fatalf("Search after close: %v", err)
	}
	if _, err := eng.FlushNow(); err != ErrClosed {
		t.Fatalf("FlushNow after close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentIngestSearchFlush(t *testing.T) {
	// Race-oriented smoke: ingest, query, and background flushing all
	// run concurrently; run under -race in CI.
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  128 << 10,
		FlushFraction: 0.2,
		Attr:          attr.Keyword(),
		DiskDir:       t.TempDir(),
		Policy:        policy.Choice[string]{Policy: core.NewMK[string](), TrackTopK: true, TrackOverK: true},
		SyncFlush:     false, // background flushing goroutine
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 5000; i++ {
			kws := []string{fmt.Sprintf("k%d", i%23)}
			if i%2 == 0 {
				kws = append(kws, fmt.Sprintf("k%d", i%7))
			}
			if _, err := eng.Ingest(&types.Microblog{Keywords: kws, Text: "text"}); err != nil && err != ErrNoKeys {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			op := query.Op(i % 3)
			keys := []string{fmt.Sprintf("k%d", i%23)}
			if op != query.OpSingle {
				keys = append(keys, fmt.Sprintf("k%d", i%7))
			}
			if _, err := eng.Search(query.Request[string]{Keys: keys, Op: op, K: 5}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := eng.Err(); err != nil {
		t.Fatalf("background flush error: %v", err)
	}
}

func TestLRUEngineIntegration(t *testing.T) {
	eng := newKeywordEngine(t, 48<<10, policy.NewLRU[string](), false)
	for i := 1; i <= 800; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%13))
		if i%5 == 0 {
			if _, err := eng.Search(query.Request[string]{Keys: []string{"k1"}, K: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// k1 is constantly queried so LRU should keep it hot.
	res, err := eng.Search(query.Request[string]{Keys: []string{"k1"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit {
		t.Error("constantly queried key missed memory under LRU")
	}
}

// TestHitReasons drives each way a search can be answered: filled hits
// (k postings above all the key lost, a tie on score broken by a higher
// ID included), complete hits (a key that never lost a posting, with
// fewer than k or none in memory — alone, in an OR, or as the AND key
// whose postings are filtered by their own keys — and an OR whose merged
// k-th outranks everything its keys lost) and misses (memory's k-th
// ranks below what a key lost). Answers, the per-reason counters and
// the trace's entry probes and hit reason must agree.
func TestHitReasons(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	gone := ingest(t, eng, 100, "old")
	ingest(t, eng, 2, "lag")
	ingest(t, eng, 50, "tie")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 6; ts++ {
		ingest(t, eng, ts, "hot")
	}
	ingest(t, eng, 7, "few")
	ingest(t, eng, 8, "few")
	both := ingest(t, eng, 9, "few", "old")
	ingest(t, eng, 10, "lag")
	for range 5 {
		ingest(t, eng, 50, "tie") // ties the flushed t=50 posting, with a higher ID
	}

	const filled, complete, miss = "filled", "complete", ""
	cases := []struct {
		keys   []string
		op     query.Op
		reason string
		n      int
	}{
		{[]string{"hot"}, query.OpSingle, filled, 5},
		{[]string{"few"}, query.OpSingle, complete, 3},
		{[]string{"never"}, query.OpSingle, complete, 0},
		{[]string{"old"}, query.OpSingle, miss, 2},
		{[]string{"tie"}, query.OpSingle, filled, 5},
		{[]string{"few", "old"}, query.OpAnd, complete, 1},
		{[]string{"hot", "few"}, query.OpOr, complete, 5},
		{[]string{"hot", "old"}, query.OpOr, miss, 5},
		// lag lost only its t=2 posting, below the merged k-th (hot's t=3).
		{[]string{"hot", "lag"}, query.OpOr, complete, 5},
	}
	for _, c := range cases {
		tr := trace.New()
		res, err := eng.Search(query.Request[string]{Keys: c.keys, Op: c.op, K: 5, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.MemoryHit != (c.reason != miss) || tr.HitReason != c.reason || len(res.Items) != c.n {
			t.Errorf("%v %v: hit %v (%q), %d items; want %q, %d items",
				c.op, c.keys, res.MemoryHit, tr.HitReason, len(res.Items), c.reason, c.n)
		}
		for _, p := range tr.Entries {
			if complete := p.Key == "few" || p.Key == "never" || p.Key == "hot"; p.Complete != complete {
				t.Errorf("%v %v: probe %+v, want Complete %v", c.op, c.keys, p, complete)
			}
		}
	}
	res, _ := eng.Search(query.Request[string]{Keys: []string{"old"}, K: 2})
	if len(res.Items) != 2 || res.Items[0].MB.ID != gone || res.Items[1].MB.ID != both {
		t.Errorf("old's top 2: %v, want the flushed t=100 record then t=9", res.Items)
	}
	m := eng.Stats().Metrics
	if m.FilledHits != 2 || m.CompleteHits != 5 || m.Misses != 3 ||
		m.SingleCompleteHits != 2 || m.OrCompleteHits != 2 || m.AndCompleteHits != 1 {
		t.Errorf("hits by reason: filled %d complete %d misses %d (single %d or %d and %d complete)",
			m.FilledHits, m.CompleteHits, m.Misses, m.SingleCompleteHits, m.OrCompleteHits, m.AndCompleteHits)
	}
}

// TestDepartureRecordOverhead checks the departure record is charged to
// the policy overhead, not the budget, and is at most 1/64 of it.
func TestDepartureRecordOverhead(t *testing.T) {
	for _, budget := range []int64{48 << 10, 16 << 20, 24 << 20} {
		eng := newKeywordEngine(t, budget, core.New[string](), false)
		d := eng.Index().DepartedBytes()
		if d <= 0 || d > budget/64 || d*2 <= budget/64 {
			t.Errorf("budget %d: departure record %d bytes, want the largest power of two within %d", budget, d, budget/64)
		}
		st := eng.Stats()
		if st.PolicyOverhead < d || st.MemoryUsed != 0 {
			t.Errorf("budget %d: overhead %d, memory used %d; want the record's %d bytes in the overhead only",
				budget, st.PolicyOverhead, st.MemoryUsed, d)
		}
	}
}

// TestDepartedReadsBySource checks that a search for a key without an
// entry counts its departure-record read under the source that served
// it, and that the index's sources and the metric's labels line up.
func TestDepartedReadsBySource(t *testing.T) {
	for src, want := range map[index.Source]string{index.SourceNone: "none", index.SourceGhost: "ghost", index.SourceFloor: "floor"} {
		if got := metrics.DepartedSourceNames[src]; got != want {
			t.Errorf("source %d labelled %q, want %q", src, got, want)
		}
	}
	eng := newKeywordEngine(t, 16<<20, core.New[string](), false)
	eng.Index().Depart("gone", 7, 1)
	for _, key := range []string{"never", "gone", "gone"} {
		if _, err := eng.Search(query.Request[string]{Keys: []string{key}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().Metrics.DepartedReads; got != [metrics.DepartedSources]int64{1, 2, 0} {
		t.Fatalf("departed reads by source %v, want [1 2 0]", got)
	}
}
