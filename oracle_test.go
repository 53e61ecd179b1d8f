package kflushing_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kflushing"
	"kflushing/internal/index"
)

// oracle is a brute-force reference implementation: it keeps every
// ingested record and answers top-k queries by scanning. The engine —
// memory plus disk, across any amount of flushing under any policy —
// must return exactly the same ranked answers (the paper's "answers are
// always accurate" property: flushed data moves to disk, it is never
// dropped).
type oracle struct {
	recs []*kflushing.Microblog
	// ranker scores records as the system does; nil is temporal.
	ranker kflushing.Ranker
}

func (o *oracle) add(mb *kflushing.Microblog) { o.recs = append(o.recs, mb) }

func (o *oracle) matches(mb *kflushing.Microblog, keys []string, op kflushing.Op) bool {
	has := func(kw string) bool {
		for _, k := range mb.Keywords {
			if k == kw {
				return true
			}
		}
		return false
	}
	switch op {
	case kflushing.OpAnd:
		for _, k := range keys {
			if !has(k) {
				return false
			}
		}
		return true
	default: // single or OR
		for _, k := range keys {
			if has(k) {
				return true
			}
		}
		return false
	}
}

func (o *oracle) search(keys []string, op kflushing.Op, k int) []kflushing.ID {
	var hits []*kflushing.Microblog
	for _, mb := range o.recs {
		if o.matches(mb, keys, op) {
			hits = append(hits, mb)
		}
	}
	r := o.ranker
	if r == nil {
		r = kflushing.Temporal
	}
	sort.Slice(hits, func(i, j int) bool {
		if si, sj := r.Score(hits[i]), r.Score(hits[j]); si != sj {
			return si > sj
		}
		return hits[i].ID > hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	ids := make([]kflushing.ID, len(hits))
	for i, mb := range hits {
		ids[i] = mb.ID
	}
	return ids
}

// TestMemoryHitExactOutOfOrder is the smallest case of a memory hit
// that is not the answer: x@t=100 goes to disk, then two older postings
// of x fill its entry to k. Memory's two are not the top 2, so the
// search must go to disk.
func TestMemoryHitExactOutOfOrder(t *testing.T) {
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{K: 2, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ingest := func(ts int64) kflushing.ID {
		id, err := sys.Ingest(&kflushing.Microblog{Timestamp: kflushing.Timestamp(ts), Keywords: []string{"x"}, Text: "t"})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	at100 := ingest(100)
	if _, err := sys.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.StoreRecords != 0 || st.Disk.Segments == 0 {
		t.Fatalf("x@100 not flushed: %d records in memory, %d segments", st.StoreRecords, st.Disk.Segments)
	}
	at50 := ingest(50)
	ingest(40)
	res, err := sys.Search([]string{"x"}, kflushing.OpSingle, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(res.Items); len(got) != 2 || got[0] != at100 || got[1] != at50 {
		t.Fatalf("top 2 of x = %v (hit=%v), want [%d %d]: t=100 then t=50", got, res.MemoryHit, at100, at50)
	}
}

// TestEngineMatchesOracle cross-checks the full system against the
// oracle under every policy, with a budget tiny enough that most data
// lives on disk by the end.
func TestEngineMatchesOracle(t *testing.T) {
	for _, pol := range []kflushing.PolicyKind{
		kflushing.PolicyFIFO, kflushing.PolicyLRU,
		kflushing.PolicyKFlushing, kflushing.PolicyKFlushingMK,
	} {
		forEachAllocPolicy(t, string(pol), func(t *testing.T, ap string) {
			rng := rand.New(rand.NewSource(42))
			sys, err := kflushing.OpenAlloc(t.TempDir(), kflushing.Options{
				Policy:       pol,
				K:            4,
				MemoryBudget: 48 << 10,
				SyncFlush:    true,
			}, ap)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			orc := &oracle{}
			const vocabSize = 25
			kw := func(i int) string { return fmt.Sprintf("w%d", i) }

			for i := 1; i <= 3000; i++ {
				nk := rng.Intn(3) + 1
				seen := map[string]bool{}
				var kws []string
				for len(kws) < nk {
					w := kw(rng.Intn(vocabSize))
					if !seen[w] {
						seen[w] = true
						kws = append(kws, w)
					}
				}
				mb := &kflushing.Microblog{
					Timestamp: kflushing.Timestamp(i),
					Keywords:  kws,
					Text:      "t",
				}
				if _, err := sys.Ingest(mb); err != nil {
					t.Fatal(err)
				}
				orc.add(mb)

				// Interleave queries so query-recency bookkeeping and
				// flushing interact, checking answers as we go.
				if i%37 == 0 {
					checkQuery(t, sys, orc, rng, kw, vocabSize)
				}
				// Force a flush periodically and verify the structural
				// invariants every flush must preserve.
				if i%911 == 0 {
					checkFlushInvariants(t, sys)
				}
				// Change k mid-stream (Section IV-C): flushing adapts
				// on later cycles; answers must stay exact throughout.
				if i%700 == 0 {
					sys.SetK(rng.Intn(7) + 2)
				}
			}
			if sys.Stats().Disk.Segments == 0 {
				t.Fatal("budget too large: nothing flushed, oracle test vacuous")
			}
			checkFlushInvariants(t, sys)
			// A final sweep of every query shape over several keys.
			for q := 0; q < 300; q++ {
				checkQuery(t, sys, orc, rng, kw, vocabSize)
			}
		})
	}
}

// TestRandomizedModelBased is a randomized model-based test: ~10k
// seeded operations — batched ingests of random sizes, searches of every
// shape, forced flushes, and leveled compactions (both single passes and
// full squashes) — interleaved in random order against the flat
// in-memory model, for each flushing policy. The operation stream
// is fully determined by the seed, which is logged first so any failure
// (every check also embeds it) replays exactly.
//
// The base arm ingests in timestamp order under temporal ranking, where
// arrival order is rank order. The other arms break that, which is what
// an inexact memory hit hides behind: timestamps drawn out of order
// (ties included), the popularity ranker, and a durable system closed
// and reopened at random points, so the log's replay — in file order,
// not arrival order — rebuilds memory over a disk tier that already
// holds better-ranked records.
func TestRandomizedModelBased(t *testing.T) {
	all := []kflushing.PolicyKind{
		kflushing.PolicyFIFO, kflushing.PolicyLRU, kflushing.PolicyKFlushing, kflushing.PolicyKFlushingMK,
	}
	// OR hits only the merged k-th proves: some key is neither complete
	// nor k-filled. The oracle must see some, or it never checks them.
	mergedHits := 0
	defer func() {
		if mergedHits == 0 && !t.Failed() {
			t.Error("no OR hit rested on the merged k-th alone: the oracle checked none")
		}
	}()
	for pi, pol := range all[:3] {
		pol := pol
		seed := int64(pi+1) * 7919
		forEachAllocPolicy(t, string(pol), func(t *testing.T, ap string) {
			mergedHits += runModel(t, modelArm{ops: 10_000}, pol, ap, seed)
		})
	}
	for _, arm := range []modelArm{
		{name: "out-of-order", ops: 2500, outOfOrder: true},
		{name: "popularity", ops: 2500, ranker: kflushing.Popularity},
		{name: "reopen", ops: 2500, durable: true},
	} {
		for pi, pol := range all {
			arm, pol, seed := arm, pol, int64(pi+1)*104729
			t.Run(arm.name+"/"+string(pol), func(t *testing.T) {
				mergedHits += runModel(t, arm, pol, "pooled", seed)
			})
		}
	}
}

// modelArm is one way of driving the model-based test.
type modelArm struct {
	name string
	ops  int
	// ranker scores records (nil: temporal).
	ranker kflushing.Ranker
	// outOfOrder draws timestamps at random instead of counting up.
	outOfOrder bool
	// durable opens a durable system and closes and reopens it at random
	// points of the stream.
	durable bool
}

// runModel drives one arm and returns how many checked OR hits rested
// on the merged k-th alone.
func runModel(t *testing.T, arm modelArm, pol kflushing.PolicyKind, ap string, seed int64) (mergedHits int) {
	t.Logf("replay with rand.NewSource(%d)", seed)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opt := kflushing.Options{
		Policy:       pol,
		K:            4,
		MemoryBudget: 48 << 10,
		SyncFlush:    true,
		Ranker:       arm.ranker,
		Durable:      arm.durable,
	}
	sys, err := kflushing.OpenAlloc(dir, opt, ap)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Close() }()

	orc := &oracle{ranker: arm.ranker}
	const vocabSize = 25
	kw := func(i int) string { return fmt.Sprintf("w%d", i) }
	ts := 0
	for op := 0; op < arm.ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.55: // batched ingest, 1..8 records
			n := rng.Intn(8) + 1
			batch := make([]*kflushing.Microblog, 0, n)
			for j := 0; j < n; j++ {
				ts++
				stamp := ts
				if arm.outOfOrder {
					stamp = rng.Intn(4*arm.ops) + 1
				}
				nk := rng.Intn(3) + 1
				seen := map[string]bool{}
				var kws []string
				for len(kws) < nk {
					w := kw(rng.Intn(vocabSize))
					if !seen[w] {
						seen[w] = true
						kws = append(kws, w)
					}
				}
				mb := &kflushing.Microblog{Timestamp: kflushing.Timestamp(stamp), Keywords: kws, Text: "t"}
				if arm.ranker != nil {
					mb.Followers = uint32(rng.Intn(4))
				}
				batch = append(batch, mb)
			}
			ids, err := sys.IngestBatch(batch)
			if err != nil {
				t.Fatalf("seed %d op %d: IngestBatch: %v", seed, op, err)
			}
			for j, id := range ids {
				if id == 0 {
					t.Fatalf("seed %d op %d: keyword-bearing record %d skipped", seed, op, j)
				}
				orc.add(batch[j])
			}
		case r < 0.92: // search, checked against the model
			if checkQuery(t, sys, orc, rng, kw, vocabSize) {
				mergedHits++
			}
		case r < 0.96: // forced flush at a random point in the stream
			if _, err := sys.FlushNow(); err != nil {
				t.Fatalf("seed %d op %d: FlushNow: %v", seed, op, err)
			}
		case arm.durable && r < 0.98: // restart: memory comes back from the log
			if err := sys.Close(); err != nil {
				t.Fatalf("seed %d op %d: Close: %v", seed, op, err)
			}
			if sys, err = kflushing.OpenAlloc(dir, opt, ap); err != nil {
				t.Fatalf("seed %d op %d: reopen: %v", seed, op, err)
			}
		case r < 0.99: // leveled compaction at a random point: answers
			// must be unchanged by segment merging mid-stream.
			if err := sys.CompactNow(); err != nil {
				t.Fatalf("seed %d op %d: CompactNow: %v", seed, op, err)
			}
		default: // full compaction squashes every level into one segment
			if err := sys.CompactAll(); err != nil {
				t.Fatalf("seed %d op %d: CompactAll: %v", seed, op, err)
			}
		}
	}
	if sys.Stats().Disk.Segments == 0 {
		t.Fatalf("seed %d: nothing flushed, model test vacuous", seed)
	}
	checkFlushInvariants(t, sys)
	// Every cycle of the run reads as one whole record whose
	// timings add up, budget- and FlushNow-triggered alike.
	log := sys.FlushLog(0)
	if len(log) == 0 {
		t.Fatalf("seed %d: empty flush log", seed)
	}
	for _, c := range log {
		if err := c.CheckTimings(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !c.Complete || c.Policy != string(pol) || len(c.Phases) == 0 {
			t.Fatalf("seed %d: cycle %+v, want a complete %s cycle with its phases", seed, c, pol)
		}
	}
	for q := 0; q < 200; q++ {
		if checkQuery(t, sys, orc, rng, kw, vocabSize) {
			mergedHits++
		}
	}
	t.Logf("%d OR hits rested on the merged k-th alone", mergedHits)
	return mergedHits
}

// checkFlushInvariants forces one flush cycle and verifies the
// structural invariants every policy's flush must preserve:
//
//   - the reported freed bytes are sane: non-negative and no more than
//     the memory in use before the flush;
//   - no index posting references a dead record — every posting's
//     record has a positive posting count and is still present in the
//     raw data store (a record leaves memory only when its last posting
//     does).
func checkFlushInvariants(t *testing.T, sys *kflushing.System) {
	t.Helper()
	eng := sys.Engine()
	usedBefore := eng.Mem().Used()
	freed, err := sys.FlushNow()
	if err != nil {
		t.Fatalf("FlushNow: %v", err)
	}
	if freed < 0 {
		t.Fatalf("flush freed %d bytes (negative)", freed)
	}
	if freed > usedBefore {
		t.Fatalf("flush freed %d bytes, more than the %d in use", freed, usedBefore)
	}
	eng.Index().Range(func(e *index.Entry[string]) bool {
		recs, _, _ := e.Probe(-1)
		for _, rec := range recs {
			if rec.PCount() <= 0 {
				t.Fatalf("entry %q holds a posting for record %d with pcount %d",
					e.Key(), rec.MB.ID, rec.PCount())
			}
			if eng.Store().Get(rec.MB.ID) == nil {
				t.Fatalf("entry %q holds a posting for record %d missing from the store",
					e.Key(), rec.MB.ID)
			}
		}
		return true
	})
}

// TestBatchedIngestEquivalence runs the same stream through a per-record
// system and a batched system (chunks of 17 — deliberately not aligned
// with anything) and requires identical top-k answers. For the exact
// policies (FIFO and base kFlushing) answers equal memory ∪ disk no
// matter when flushes run, so batching — which shifts flush timing to
// batch boundaries — must be invisible to queries.
func TestBatchedIngestEquivalence(t *testing.T) {
	for _, pol := range []kflushing.PolicyKind{
		kflushing.PolicyKFlushing, kflushing.PolicyFIFO,
	} {
		forEachAllocPolicy(t, string(pol), func(t *testing.T, ap string) {
			opt := kflushing.Options{
				Policy:       pol,
				K:            4,
				MemoryBudget: 48 << 10,
				SyncFlush:    true,
			}
			single, err := kflushing.OpenAlloc(t.TempDir(), opt, ap)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			batched, err := kflushing.OpenAlloc(t.TempDir(), opt, ap)
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()

			rng := rand.New(rand.NewSource(7))
			const vocabSize = 25
			kw := func(i int) string { return fmt.Sprintf("w%d", i) }
			mkRecord := func(i int) *kflushing.Microblog {
				nk := rng.Intn(3) + 1
				seen := map[string]bool{}
				var kws []string
				for len(kws) < nk {
					w := kw(rng.Intn(vocabSize))
					if !seen[w] {
						seen[w] = true
						kws = append(kws, w)
					}
				}
				return &kflushing.Microblog{
					Timestamp: kflushing.Timestamp(i),
					Keywords:  kws,
					Text:      "t",
				}
			}

			const n, chunk = 2000, 17
			var batch []*kflushing.Microblog
			for i := 1; i <= n; i++ {
				mb := mkRecord(i)
				if _, err := single.Ingest(mb.Clone()); err != nil {
					t.Fatal(err)
				}
				batch = append(batch, mb)
				if len(batch) == chunk || i == n {
					ids, err := batched.IngestBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, id := range ids {
						if id == 0 {
							t.Fatal("batched ingest skipped a keyword-bearing record")
						}
					}
					batch = batch[:0]
				}
			}
			if got, want := batched.Stats().Metrics.Ingested, single.Stats().Metrics.Ingested; got != want {
				t.Fatalf("batched system ingested %d records, single ingested %d", got, want)
			}
			if batched.Stats().Disk.Segments == 0 {
				t.Fatal("budget too large: nothing flushed, equivalence vacuous")
			}

			for q := 0; q < 400; q++ {
				op := kflushing.Op(rng.Intn(3))
				nKeys := 1
				if op != kflushing.OpSingle {
					nKeys = rng.Intn(2) + 2
				}
				seen := map[string]bool{}
				var keys []string
				for len(keys) < nKeys {
					w := kw(rng.Intn(vocabSize))
					if !seen[w] {
						seen[w] = true
						keys = append(keys, w)
					}
				}
				k := rng.Intn(6) + 1
				a, err := single.Search(keys, op, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := batched.Search(keys, op, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Items) != len(b.Items) {
					t.Fatalf("query %v %v k=%d: single %d items, batched %d",
						keys, op, k, len(a.Items), len(b.Items))
				}
				for i := range a.Items {
					if a.Items[i].MB.ID != b.Items[i].MB.ID {
						t.Fatalf("query %v %v k=%d rank %d: single id %d, batched id %d",
							keys, op, k, i, a.Items[i].MB.ID, b.Items[i].MB.ID)
					}
				}
			}
		})
	}
}

// checkQuery compares one random query against the oracle: every
// answer must be exactly the model's, memory hit or not — a hit is
// exact whatever the policy, and a miss merges memory ∪ disk, which
// holds everything. One key in eight is one no record carries. A
// single-key query is asked twice, at k and at 1: the best item must be
// the same (a metamorphic check needing no model). An OR query is
// traced, and checkQuery reports whether it hit with some key neither
// complete nor k-filled: a hit only the merged k-th proves.
func checkQuery(t *testing.T, sys *kflushing.System, orc *oracle,
	rng *rand.Rand, kw func(int) string, vocabSize int) (mergedHit bool) {
	t.Helper()
	op := kflushing.Op(rng.Intn(3))
	nKeys := 1
	if op != kflushing.OpSingle {
		nKeys = rng.Intn(2) + 2
	}
	seen := map[string]bool{}
	var keys []string
	for len(keys) < nKeys {
		w := kw(rng.Intn(vocabSize))
		if rng.Intn(8) == 0 {
			w = "never-ingested"
		}
		if !seen[w] {
			seen[w] = true
			keys = append(keys, w)
		}
	}
	k := rng.Intn(6) + 1

	var res kflushing.Result
	var tr *kflushing.Trace
	var err error
	if op == kflushing.OpOr {
		res, tr, err = sys.SearchTraced(keys, op, k)
	} else {
		res, err = sys.Search(keys, op, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := orc.search(keys, op, k)
	if len(res.Items) != len(want) {
		t.Fatalf("query %v %v k=%d: got %d items, want %d (hit=%v disk=%v)",
			keys, op, k, len(res.Items), len(want), res.MemoryHit, res.DiskChecked)
	}
	for i, it := range res.Items {
		if it.MB.ID != want[i] {
			t.Fatalf("query %v %v k=%d rank %d: got id %d, want %d (hit=%v disk=%v sysK=%d)",
				keys, op, k, i, it.MB.ID, want[i], res.MemoryHit, res.DiskChecked, sys.Stats().K)
		}
	}
	if tr != nil && res.MemoryHit {
		for _, p := range tr.Entries {
			mergedHit = mergedHit || !p.Complete && !p.KFilled
		}
	}
	if op != kflushing.OpSingle {
		return mergedHit
	}
	top1, err := sys.Search(keys, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1.Items) != min(1, len(res.Items)) || len(top1.Items) == 1 && top1.Items[0].MB.ID != res.Items[0].MB.ID {
		t.Fatalf("query %v: top-1 %v (hit=%v) is not top-%d's first %v (hit=%v)",
			keys, ids(top1.Items), top1.MemoryHit, k, ids(res.Items), res.MemoryHit)
	}
	return false
}

// ids lists an answer's record IDs.
func ids(items []kflushing.Item) []kflushing.ID {
	out := make([]kflushing.ID, len(items))
	for i, it := range items {
		out[i] = it.MB.ID
	}
	return out
}
