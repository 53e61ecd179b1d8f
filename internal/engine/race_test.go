package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/index"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// raceEngine builds an engine with background flushing (SyncFlush off)
// and a budget small enough that flushes happen constantly under the
// stress load below, around the named policy built the way the facade
// builds it.
func raceEngine(t *testing.T, policyName string, durable bool, ap alloc.Policy, opts ...core.Option[string]) *Engine[string] {
	t.Helper()
	const budget, flushFraction = 96 << 10, 0.25
	pc, err := core.Choose(policyName, int64(flushFraction*budget), opts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: flushFraction,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		DecodeKey:     attr.KeywordDecode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Durable:       durable,
		Policy:        pc.Policy,
		TrackTopK:     pc.TrackTopK,
		TrackOverK:    pc.TrackOverK,
		AllocPolicy:   ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return eng
}

// Every stress record says who wrote it: writer g's seq-th record has the
// text "w<g>-<seq>" and the two keywords stressKeys(g, seq), so a
// searcher can tell from an item alone what it should look like.
func stressText(g, seq int) string { return fmt.Sprintf("w%d-%d", g, seq) }

// stressKeys are record (g, seq)'s keywords: one of four hot keys every
// writer shares and one key of its own. Mostly the hot key links first
// — its posting is the one a concurrent flush trims while the record is
// still being linked under the other — but either order occurs.
func stressKeys(g, seq int) []string {
	hot, own := fmt.Sprintf("hot%d", seq%4), fmt.Sprintf("g%d-k%d", g, seq)
	if seq%4 == 3 {
		return []string{own, hot}
	}
	return []string{hot, own}
}

// stressTimestamp makes every record rank below the ones its writer sent
// before it, as happens under popularity ranking: a fresh posting in a
// k-filled hot entry is already beyond the top k when the next Phase 1
// runs, so trims hit records that are seconds — or nanoseconds — old.
func stressTimestamp(seq int) types.Timestamp { return types.Timestamp(1<<40 - seq) }

// stressChecker checks every answer as it arrives. byID binds each ID to
// the text first seen under it — by the writer when IngestBatch returns,
// or by a searcher that got there first — so two records answering to
// one ID (a recycled wrapper still linked, an ID handed out twice) meet.
type stressChecker struct {
	byID sync.Map // types.ID -> string
}

func (c *stressChecker) bind(id types.ID, text string) error {
	if prev, loaded := c.byID.LoadOrStore(id, text); loaded && prev.(string) != text {
		return fmt.Errorf("content_mismatch: ID %d carries %q, was seen as %q", id, text, prev)
	}
	return nil
}

// check verifies one answer: every item satisfies op for the queried
// keys, items are strictly ordered by query.Less, no ID repeats, and
// each item's text and keywords are what was ingested under its ID.
func (c *stressChecker) check(keys []string, op query.Op, items []query.Item) error {
	seen := make(map[types.ID]bool, len(items))
	for i, it := range items {
		mb := it.MB
		if i > 0 && !query.Less(items[i-1], it) {
			return fmt.Errorf("misordered: rank %d (id %d, %g) does not precede rank %d (id %d, %g)",
				i-1, items[i-1].MB.ID, items[i-1].Score, i, mb.ID, it.Score)
		}
		if seen[mb.ID] {
			return fmt.Errorf("duplicate: ID %d twice in one answer", mb.ID)
		}
		seen[mb.ID] = true
		var g, seq int
		if _, err := fmt.Sscanf(mb.Text, "w%d-%d", &g, &seq); err != nil {
			return fmt.Errorf("content_mismatch: ID %d has text %q", mb.ID, mb.Text)
		}
		if want := stressKeys(g, seq); !slices.Equal(mb.Keywords, want) {
			return fmt.Errorf("content_mismatch: ID %d %q has keywords %v, ingested with %v", mb.ID, mb.Text, mb.Keywords, want)
		}
		matched := 0
		for _, key := range keys {
			if slices.Contains(mb.Keywords, key) {
				matched++
			}
		}
		if matched == 0 || (op == query.OpAnd && matched < len(keys)) {
			return fmt.Errorf("wrong_key: %v %v answered with ID %d %v", op, keys, mb.ID, mb.Keywords)
		}
		if err := c.bind(mb.ID, mb.Text); err != nil {
			return err
		}
	}
	return nil
}

// stress hammers one engine from many goroutines at once: batched
// ingestion of two-key records, searches over the hot keys and over the
// keys of the batches in flight, SetK changes, explicit FlushNow calls
// and a Stats scraper — all concurrent with the engine's own background
// flushing. Besides giving the race detector surface area over the
// ingest/flush/search interleavings it checks every answer as it arrives
// (stressChecker): a record evicted, recycled or relinked at the wrong
// moment shows up as an item that should not be there.
func stress(t *testing.T, eng *Engine[string]) {
	t.Helper()
	const (
		ingesters = 3
		searchers = 2
		batches   = 40
		batchLen  = 25
	)
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	var chk stressChecker
	// head[g] counts the records writer g has handed to IngestBatch, the
	// batch in flight included: searchers aim at the newest.
	var head [ingesters]atomic.Int64
	// ids[g][seq] is the ID writer g's seq-th record was acked under.
	var ids [ingesters][batches * batchLen]types.ID

	for g := 0; g < ingesters; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for b := 0; b < batches; b++ {
				mbs := make([]*types.Microblog, batchLen)
				for i := range mbs {
					seq := b*batchLen + i
					mbs[i] = &types.Microblog{Keywords: stressKeys(g, seq), Text: stressText(g, seq), Timestamp: stressTimestamp(seq)}
				}
				head[g].Add(batchLen)
				acked, err := eng.IngestBatch(mbs)
				if err != nil {
					t.Errorf("IngestBatch: %v", err)
					return
				}
				for i, id := range acked {
					ids[g][b*batchLen+i] = id
					if err := chk.bind(id, stressText(g, b*batchLen+i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	for g := 0; g < searchers; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !stop.Load(); i++ {
				// A record of the batch some writer is ingesting right now,
				// or of the one before it.
				w := i / 3 % ingesters
				seq := max(int(head[w].Load())-1-i%(2*batchLen), 0)
				recent := stressKeys(w, seq)
				var keys []string
				var op query.Op
				switch i % 3 {
				case 0:
					keys, op = recent, query.OpAnd
				case 1:
					keys, op = []string{fmt.Sprintf("hot%d", i%4), fmt.Sprintf("hot%d", (i+1)%4)}, query.OpOr
				default:
					keys, op = recent[i%2:i%2+1], query.OpSingle
				}
				res, err := eng.Search(query.Request[string]{Keys: keys, Op: op})
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if err := chk.check(keys, op, res.Items); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					eng.SetK(3 + i%5)
				}
				if i%13 == 0 {
					if _, err := eng.FlushNow(); err != nil {
						t.Errorf("FlushNow: %v", err)
						return
					}
				}
			}
		}(g)
	}

	// The /metrics scrape path: a full Stats census while everything
	// above runs.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			_ = eng.Stats()
		}
	}()

	// Searchers and the scraper run until the ingesters finish.
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	// At quiescence — no cycle running, no batch between memory and the
	// tier — check memory ∪ disk against the brute-force model.
	var truth []stressRecord
	for g := range ids {
		for seq, id := range ids[g] {
			truth = append(truth, stressRecord{id: id, keys: stressKeys(g, seq), score: float64(stressTimestamp(seq))})
		}
	}
	quiesce(eng, func() { checkQuiescent(t, eng, truth) })

	// Drain: once every record is evicted the model must read zero. A
	// record declared dead twice — evicted while ingestion was still
	// linking it, then again when its last key went — is uncharged twice
	// and leaves the gauge negative.
	for i := 0; i < 1000 && eng.store.Len() > 0; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatalf("FlushNow: %v", err)
		}
	}
	if n, data, postings := eng.store.Len(), eng.mem.Data(), eng.idx.Postings(); n != 0 || data != 0 || postings != 0 {
		t.Errorf("after draining: %d records, %d data bytes, %d postings still accounted for", n, data, postings)
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("background flush error: %v", err)
	}
	if got := eng.Metrics().Ingested.Load(); !t.Failed() && got != int64(ingesters*batches*batchLen) {
		t.Fatalf("ingested %d records, want %d", got, ingesters*batches*batchLen)
	}
}

// stressRecord is one acked stress record as the model knows it.
type stressRecord struct {
	id    types.ID
	keys  []string
	score float64
}

// quiesce runs fn holding the flush gate: every cycle completes its
// batch before it gives the gate back, so nothing is between memory and
// the tier, and nothing leaves memory until fn returns.
func quiesce(eng *Engine[string], fn func()) {
	eng.flushMu.Lock()
	defer eng.flushMu.Unlock()
	fn()
}

// checkQuiescent checks the two halves of the memory-hit contract on a
// quiescent engine:
//   - memory ∪ disk holds every key's true top-k, for the k in force;
//   - every live entry's ceiling bounds, in (score, ID) rank, what its
//     key has on disk: a disk posting that outranks it is one of the
//     entry's own records (copied to disk when another key evicted it),
//     so an entry whose k-th posting beats its ceiling holds the key's
//     top k.
func checkQuiescent(t *testing.T, eng *Engine[string], truth []stressRecord) {
	t.Helper()
	k := eng.idx.K()
	byKey := map[string][]stressRecord{}
	for _, r := range truth {
		for _, key := range r.keys {
			byKey[key] = append(byKey[key], r)
		}
	}
	onDisk := func(key string) map[types.ID]float64 {
		items, err := eng.tier.Search([]string{key}, query.OpSingle, len(truth))
		if err != nil {
			t.Fatalf("disk search %q: %v", key, err)
		}
		out := make(map[types.ID]float64, len(items))
		for _, it := range items {
			out[it.MB.ID] = it.Score
		}
		return out
	}
	inMemory := func(key string) (map[types.ID]bool, index.Bound) {
		out := map[types.ID]bool{}
		en := eng.idx.Entry(key)
		if en == nil {
			return out, eng.idx.Departed(key)
		}
		recs, _, ceiling := en.Probe(-1)
		for _, r := range recs {
			out[r.MB.ID] = true
		}
		return out, ceiling
	}
	for key, recs := range byKey {
		slices.SortFunc(recs, func(a, b stressRecord) int {
			if a.score != b.score {
				return cmp.Compare(b.score, a.score)
			}
			return cmp.Compare(b.id, a.id)
		})
		mem, ceiling := inMemory(key)
		disk := onDisk(key)
		for _, r := range recs[:min(k, len(recs))] {
			if _, ok := disk[r.id]; !ok && !mem[r.id] {
				t.Errorf("memory ∪ disk lost %q's top-%d record %d", key, k, r.id)
			}
		}
		for id, score := range disk {
			if ceiling.Below(score, id) && !mem[id] {
				t.Errorf("%q has record %d (%g) on disk above its ceiling %+v and not in memory", key, id, score, ceiling)
			}
		}
	}
}

// stressBothAllocPolicies runs the stress load once per allocator
// policy. Pooled is where the sharp edges live — a recycled record or
// posting array handed out while a search still reads it is a
// use-after-release the race detector will see — and heap keeps the
// baseline honest.
func stressBothAllocPolicies(t *testing.T, mk func(t *testing.T, ap alloc.Policy) *Engine[string]) {
	for _, ap := range []alloc.Policy{alloc.PolicyPooled, alloc.PolicyHeap} {
		ap := ap
		t.Run("alloc="+ap.String(), func(t *testing.T) {
			stress(t, mk(t, ap))
		})
	}
}

func TestConcurrentStressKFlushing(t *testing.T) {
	stressBothAllocPolicies(t, func(t *testing.T, ap alloc.Policy) *Engine[string] {
		return raceEngine(t, core.NameKFlushing, false, ap)
	})
}

func TestConcurrentStressKFlushingParallel(t *testing.T) {
	// Forced multi-worker Phase 1 / victim scanning, so the parallel
	// paths get race coverage even on single-core CI runners.
	stressBothAllocPolicies(t, func(t *testing.T, ap alloc.Policy) *Engine[string] {
		return raceEngine(t, core.NameKFlushing, false, ap, core.WithParallelism[string](4))
	})
}

func TestConcurrentStressMK(t *testing.T) {
	stressBothAllocPolicies(t, func(t *testing.T, ap alloc.Policy) *Engine[string] {
		return raceEngine(t, core.NameKFlushingMK, false, ap)
	})
}

func TestConcurrentStressFIFO(t *testing.T) {
	stressBothAllocPolicies(t, func(t *testing.T, ap alloc.Policy) *Engine[string] {
		return raceEngine(t, core.NameFIFO, false, ap)
	})
}

func TestConcurrentStressLRU(t *testing.T) {
	stressBothAllocPolicies(t, func(t *testing.T, ap alloc.Policy) *Engine[string] {
		return raceEngine(t, core.NameLRU, false, ap)
	})
}

// TestConcurrentStressDurable adds the write-ahead log — group commit
// under concurrent batches, claims released at flush install, reclaim —
// under every policy.
func TestConcurrentStressDurable(t *testing.T) {
	for _, ap := range []alloc.Policy{alloc.PolicyPooled, alloc.PolicyHeap} {
		ap := ap
		t.Run("alloc="+ap.String(), func(t *testing.T) {
			for _, name := range []string{core.NameKFlushing, core.NameKFlushingMK, core.NameFIFO, core.NameLRU} {
				name := name
				t.Run("policy="+name, func(t *testing.T) {
					stress(t, raceEngine(t, name, true, ap))
				})
			}
		})
	}
}
