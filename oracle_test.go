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
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Timestamp != hits[j].Timestamp {
			return hits[i].Timestamp > hits[j].Timestamp
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
			minSysK := 4 // tracks the smallest flushing k used so far

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
					checkQuery(t, sys, orc, rng, kw, vocabSize, pol, minSysK)
				}
				// Force a flush periodically and verify the structural
				// invariants every flush must preserve.
				if i%911 == 0 {
					checkFlushInvariants(t, sys)
				}
				// Change k mid-stream (Section IV-C): flushing adapts
				// on later cycles; answers must stay exact throughout.
				if i%700 == 0 {
					newK := rng.Intn(7) + 2
					if newK < minSysK {
						minSysK = newK
					}
					sys.SetK(newK)
				}
			}
			if sys.Stats().Disk.Segments == 0 {
				t.Fatal("budget too large: nothing flushed, oracle test vacuous")
			}
			checkFlushInvariants(t, sys)
			// A final sweep of every query shape over several keys.
			for q := 0; q < 300; q++ {
				checkQuery(t, sys, orc, rng, kw, vocabSize, pol, minSysK)
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
func TestRandomizedModelBased(t *testing.T) {
	for pi, pol := range []kflushing.PolicyKind{
		kflushing.PolicyFIFO, kflushing.PolicyLRU, kflushing.PolicyKFlushing,
	} {
		pol := pol
		seed := int64(pi+1) * 7919
		forEachAllocPolicy(t, string(pol), func(t *testing.T, ap string) {
			t.Logf("replay with rand.NewSource(%d)", seed)
			rng := rand.New(rand.NewSource(seed))
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
			ts := 0
			const ops = 10_000
			for op := 0; op < ops; op++ {
				switch r := rng.Float64(); {
				case r < 0.55: // batched ingest, 1..8 records
					n := rng.Intn(8) + 1
					batch := make([]*kflushing.Microblog, 0, n)
					for j := 0; j < n; j++ {
						ts++
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
						batch = append(batch, &kflushing.Microblog{
							Timestamp: kflushing.Timestamp(ts),
							Keywords:  kws,
							Text:      "t",
						})
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
					checkQuery(t, sys, orc, rng, kw, vocabSize, pol, 4)
				case r < 0.96: // forced flush at a random point in the stream
					if _, err := sys.FlushNow(); err != nil {
						t.Fatalf("seed %d op %d: FlushNow: %v", seed, op, err)
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
				checkQuery(t, sys, orc, rng, kw, vocabSize, pol, 4)
			}
		})
	}
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
		for _, rec := range e.All() {
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

// checkQuery compares one random query against the oracle.
//
// Exactness guarantees (see the engine's Search documentation): any
// answer that consulted disk is exact for every policy (memory ∪ disk
// holds everything). Memory-hit answers are exact whenever the policy
// preserves each entry's suffix property (trims remove only the
// lowest-ranked postings): FIFO and base kFlushing always; kFlushing-MK
// for single/OR. Two documented approximations remain: LRU evicts by
// access recency, so a memory-resident entry can be missing a
// better-ranked record; MK's AND hits may rank around a posting that was
// trimmed from one entry while a retained older posting intersects. For
// those cases — and for MK memory hits whose query k exceeds the
// smallest flushing k used (retained postings below the trim line can
// then outrank trimmed ones) — the check is relaxed to: correct count,
// genuine matches, ranked order, no duplicates.
func checkQuery(t *testing.T, sys *kflushing.System, orc *oracle,
	rng *rand.Rand, kw func(int) string, vocabSize int, pol kflushing.PolicyKind, minSysK int) {
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
		if !seen[w] {
			seen[w] = true
			keys = append(keys, w)
		}
	}
	k := rng.Intn(6) + 1

	res, err := sys.Search(keys, op, k)
	if err != nil {
		t.Fatal(err)
	}
	want := orc.search(keys, op, k)
	if len(res.Items) != len(want) {
		t.Fatalf("query %v %v k=%d: got %d items, want %d (hit=%v disk=%v)",
			keys, op, k, len(res.Items), len(want), res.MemoryHit, res.DiskChecked)
	}

	strict := res.DiskChecked ||
		pol == kflushing.PolicyFIFO || pol == kflushing.PolicyKFlushing ||
		(pol == kflushing.PolicyKFlushingMK && op != kflushing.OpAnd && k <= minSysK)
	if strict {
		for i, it := range res.Items {
			if it.MB.ID != want[i] {
				t.Fatalf("query %v %v k=%d rank %d: got id %d, want %d (hit=%v disk=%v sysK=%d)",
					keys, op, k, i, it.MB.ID, want[i], res.MemoryHit, res.DiskChecked, sys.Stats().K)
			}
		}
		return
	}
	// Relaxed check for the documented approximations.
	seenIDs := map[kflushing.ID]bool{}
	for i, it := range res.Items {
		if !orc.matches(it.MB, keys, op) {
			t.Fatalf("query %v %v: non-matching record %d in answer", keys, op, it.MB.ID)
		}
		if seenIDs[it.MB.ID] {
			t.Fatalf("query %v %v: duplicate record %d", keys, op, it.MB.ID)
		}
		seenIDs[it.MB.ID] = true
		if i > 0 && res.Items[i-1].Score < it.Score {
			t.Fatalf("query %v %v: answers not ranked", keys, op)
		}
	}
}
