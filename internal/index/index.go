// Package index implements the in-memory inverted index of Figure 3: a
// sharded hash table mapping each key (keyword, spatial tile, user ID)
// to a posting list ordered by ranking score.
//
// The index is generic over the key type, which is the code-level form
// of the paper's Section IV-A extensibility claim: the same structure —
// and therefore the same flushing policies — serves keyword, spatial,
// and user attributes.
//
// Beyond plain lookups the index maintains the bookkeeping kFlushing
// needs at negligible per-insert cost:
//
//   - the over-k list L: pointers to entries holding more than k
//     postings, so Phase 1 never scans the full key space;
//   - per-entry last-arrival and last-queried timestamps (one timestamp
//     per *key*, not per item — the paper's overhead argument against
//     LRU), driving Phases 2 and 3;
//   - optional per-record top-k membership counters for the
//     kFlushing-MK extension, maintained in O(1) per insertion;
//   - per-key ceilings: the rank, by score then record ID, of the best
//     posting of a key that left memory, kept in its entry while it
//     lives and, score only, in a fixed-size departure record of per-key
//     ghosts once it dies, so a search can tell when memory holds a
//     key's exact top-k.
package index

import (
	"sync"
	"sync/atomic"

	"kflushing/internal/alloc"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// Config parameterizes an Index.
type Config[K comparable] struct {
	// Hash maps a key to a shard-selection hash. Required.
	Hash func(K) uint64
	// KeyLen returns the encoded size of a key in bytes for the memory
	// model (string length for keywords, 0 for fixed-size keys).
	// Required.
	KeyLen func(K) int
	// K is the initial top-k threshold.
	K int
	// TrackTopK enables the per-record top-k membership counters used
	// by kFlushing-MK.
	TrackTopK bool
	// TrackOverK enables the over-k list L consumed by kFlushing's
	// Phase 1. Policies that never drain L (FIFO, LRU) leave it
	// disabled so it cannot grow unboundedly.
	TrackOverK bool
	// Tracker receives index memory accounting; may be nil.
	Tracker *memsize.Tracker
	// Shards is the number of hash shards; 0 selects a default.
	Shards int
	// Pool recycles posting-slice backing arrays across entry growth,
	// removal shrink, and entry death. Nil allocates from the heap
	// (AllocPolicy=heap).
	Pool *alloc.SlicePool[*store.Record]
	// DepartedBytes sizes the departure record that keeps the ceilings
	// of dead entries: rounded down to a power of two, at least 128
	// bytes and at most 16 MiB. Smaller records only make more searches
	// go to disk.
	DepartedBytes int64
}

type shard[K comparable] struct {
	mu      sync.RWMutex
	entries map[K]*Entry[K]
}

// Index is the sharded inverted index. All methods are safe for
// concurrent use.
type Index[K comparable] struct {
	cfg    Config[K]
	shards []shard[K]
	mask   uint64

	k atomic.Int32

	entryCount   atomic.Int64
	postingCount atomic.Int64

	// overMu guards the paper's list L of entries that exceeded k
	// postings since the last Phase 1 run: linked through the entries,
	// newest first, so a removal puts an entry back allocating nothing.
	overMu  sync.Mutex
	overK   *Entry[K]
	overLen int

	departed *departures
	// maxLinked is the highest record ID linked into an entry, raised
	// before the posting becomes visible, so it bounds the ID of every
	// posting that has left memory: the ID a ceiling read back from the
	// score-only departure record carries. Depart raises it too.
	maxLinked atomic.Uint64
}

// New builds an index from cfg.
func New[K comparable](cfg Config[K]) *Index[K] {
	if cfg.Hash == nil || cfg.KeyLen == nil {
		panic("index: Hash and KeyLen are required")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 64
	}
	// Round up to a power of two for mask selection.
	p := 1
	for p < n {
		p <<= 1
	}
	ix := &Index[K]{cfg: cfg, shards: make([]shard[K], p), mask: uint64(p - 1),
		departed: newDepartures(cfg.DepartedBytes)}
	for i := range ix.shards {
		ix.shards[i].entries = make(map[K]*Entry[K])
	}
	ix.k.Store(int32(cfg.K))
	return ix
}

// K returns the current top-k threshold.
func (ix *Index[K]) K() int { return int(ix.k.Load()) }

// SetK changes the top-k threshold. Per Section IV-C the change applies
// to subsequent flushes; in-flight flushes keep the k they started with.
func (ix *Index[K]) SetK(k int) { ix.k.Store(int32(k)) }

// TrackTopK reports whether MK top-k counters are maintained.
func (ix *Index[K]) TrackTopK() bool { return ix.cfg.TrackTopK }

// KeyHash exposes the shard-selection hash: a value that depends on the
// key alone, which victim selection uses to order entries whose
// timestamps tie.
func (ix *Index[K]) KeyHash(key K) uint64 { return ix.cfg.Hash(key) }

func (ix *Index[K]) shardFor(key K) *shard[K] {
	return &ix.shards[ix.cfg.Hash(key)&ix.mask]
}

// Insert adds a posting for rec under key, creating the entry if needed,
// and increments rec's reference count. It retries transparently if the
// entry concurrently dies in a flush.
func (ix *Index[K]) Insert(key K, rec *store.Record) {
	rec.Ref(1)
	ix.Link(key, rec)
}

// Link is Insert for a posting whose reference the caller has already
// counted. A record indexed under several keys while flushing runs must
// be charged for all of them before the first posting becomes visible
// (rec.Ref(len(keys)), then Link per key): counted one key at a time, a
// concurrent trim of the first posting would take the count to zero and
// flush the record as dead while it is still being linked.
func (ix *Index[K]) Link(key K, rec *store.Record) {
	k := int(ix.k.Load())
	for {
		e := ix.getOrCreate(key)
		// After getOrCreate: a ceiling the new entry copied covers what
		// departed before it, which this record has not.
		atomicMax(&ix.maxLinked, uint64(rec.MB.ID))
		ok, crossedK := e.insert(rec, k)
		if !ok {
			continue // entry died under us; re-create and retry
		}
		ix.postingCount.Add(1)
		if ix.cfg.Tracker != nil {
			ix.cfg.Tracker.AddIndex(memsize.PostingSize)
		}
		if crossedK {
			ix.registerOverK(e)
		}
		return
	}
}

func (ix *Index[K]) getOrCreate(key K) *Entry[K] {
	h := ix.cfg.Hash(key)
	sh := &ix.shards[h&ix.mask]
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e != nil && !e.IsDead() {
		return e
	}
	sh.mu.Lock()
	e = sh.entries[key]
	if e != nil && e.IsDead() {
		// The entry died but its remover has not taken it off the map
		// yet; replace it so ingestion never spins on a dead entry.
		ix.unmapLocked(sh, e)
		e = nil
	}
	if e == nil {
		ceiling, _ := ix.ceilingAt(h)
		e = &Entry[K]{key: key, ix: ix, hash: h, headerBytes: memsize.EntryBytes(ix.cfg.KeyLen(key)),
			ceiling: ceiling}
		sh.entries[key] = e
		ix.entryCount.Add(1)
		if ix.cfg.Tracker != nil {
			ix.cfg.Tracker.AddIndex(e.headerBytes)
		}
	}
	sh.mu.Unlock()
	return e
}

// Entry returns the entry for key, or nil if absent.
func (ix *Index[K]) Entry(key K) *Entry[K] {
	sh := ix.shardFor(key)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	return e
}

// Departed returns the ceiling a key without a live entry has: the best
// rank of its postings that left memory, or the complete bound when the
// departure record says none did — the key then has nothing anywhere.
func (ix *Index[K]) Departed(key K) Bound {
	b, _ := ix.DepartedFrom(key)
	return b
}

// DepartedFrom is Departed, and says what in the departure record served
// the ceiling. Search asks it for keys whose Entry is nil.
func (ix *Index[K]) DepartedFrom(key K) (Bound, Source) { return ix.ceilingAt(ix.cfg.Hash(key)) }

// ceilingAt reads the departure record for the key hashing to h. The
// record keeps scores only, so a ceiling read back carries the highest
// ID linked, read after the record: every posting whose departure the
// read saw was linked, and counted there, before it departed.
func (ix *Index[K]) ceilingAt(h uint64) (Bound, Source) {
	c, src := ix.departed.lookup(h)
	if c == 0 {
		return none, src
	}
	return Bound{Score: c.score(), ID: types.ID(ix.maxLinked.Load())}, src
}

// Depart records that postings of key up to score, with IDs up to id,
// are not in memory, as a dying entry does. Opening over a disk tier
// seeds the record this way from every key its directories hold.
func (ix *Index[K]) Depart(key K, score float64, id types.ID) {
	atomicMax(&ix.maxLinked, uint64(id))
	ix.departed.publish(ix.cfg.Hash(key), Bound{Score: score, ID: id})
}

// DepartedBytes is the departure record's fixed footprint.
func (ix *Index[K]) DepartedBytes() int64 { return ix.departed.Bytes() }

// DepartedGhostLoad is the fraction of the departure record's ghost
// slots holding a departed key's ceiling.
func (ix *Index[K]) DepartedGhostLoad() float64 { return ix.departed.GhostLoad() }

// registerOverK puts e on the over-k list if it is not there already.
func (ix *Index[K]) registerOverK(e *Entry[K]) {
	if !ix.cfg.TrackOverK {
		return
	}
	ix.overMu.Lock()
	e.mu.Lock()
	if !e.inOverK && !e.dead {
		e.inOverK = true
		e.nextOverK, ix.overK = ix.overK, e
		ix.overLen++
	}
	e.mu.Unlock()
	ix.overMu.Unlock()
}

// TakeOverK returns the over-k list in the order its entries joined it
// and resets it (the paper wipes L after Phase 1 completes), clearing
// each entry's membership so a later crossing — or a trim that leaves
// it above k, when the MK retention rule keeps postings — puts it back.
func (ix *Index[K]) TakeOverK() []*Entry[K] {
	ix.overMu.Lock()
	l := make([]*Entry[K], ix.overLen)
	e := ix.overK
	for i := len(l) - 1; i >= 0; i-- {
		l[i], e = e, e.nextOverK
		l[i].mu.Lock()
		l[i].inOverK, l[i].nextOverK = false, nil
		l[i].mu.Unlock()
	}
	ix.overK, ix.overLen = nil, 0
	ix.overMu.Unlock()
	return l
}

// OverKLen returns the current length of L, for stats and tests.
func (ix *Index[K]) OverKLen() int {
	ix.overMu.Lock()
	n := ix.overLen
	ix.overMu.Unlock()
	return n
}

// removed books a removal of n postings from e, which now holds left
// and died if the removal emptied it, and returns the index bytes
// freed: the postings and, once dead, the entry, which leaves the map
// unless the key's next entry has already replaced it. An entry left
// above k goes back on L.
func (ix *Index[K]) removed(e *Entry[K], n, left, k int, died bool) int64 {
	freed := int64(n) * memsize.PostingSize
	ix.postingCount.Add(int64(-n))
	if ix.cfg.Tracker != nil {
		ix.cfg.Tracker.AddIndex(-freed)
	}
	if !died {
		if left > k {
			ix.registerOverK(e)
		}
		return freed
	}
	sh := &ix.shards[e.hash&ix.mask]
	sh.mu.Lock()
	if sh.entries[e.key] == e {
		ix.unmapLocked(sh, e)
	}
	sh.mu.Unlock()
	return freed + e.headerBytes
}

// unmapLocked takes a dead entry off its shard's map. Callers hold
// sh.mu for writing.
func (ix *Index[K]) unmapLocked(sh *shard[K], e *Entry[K]) {
	delete(sh.entries, e.key)
	ix.entryCount.Add(-1)
	if ix.cfg.Tracker != nil {
		ix.cfg.Tracker.AddIndex(-e.headerBytes)
	}
}

// RecyclePostings returns a posting backing array handed out by
// Entry.Remove to the slab pool once the caller has finished
// dereferencing its records. A no-op under the heap policy. The slice
// must not be used after the call.
func (ix *Index[K]) RecyclePostings(s []*store.Record) {
	ix.cfg.Pool.Put(s)
}

// PoolStats snapshots the posting slab pool's counters (zero under the
// heap policy).
func (ix *Index[K]) PoolStats() alloc.SliceStats {
	return ix.cfg.Pool.Stats()
}

// Range calls fn for every live entry until fn returns false. Iteration
// snapshots one shard at a time; entries that die mid-iteration may
// still be visited.
func (ix *Index[K]) Range(fn func(*Entry[K]) bool) {
	for i := range ix.shards {
		if !ix.RangeShard(i, fn) {
			return
		}
	}
}

// ShardCount returns the number of hash shards, the natural parallelism
// unit for flush-time scans.
func (ix *Index[K]) ShardCount() int { return len(ix.shards) }

// RangeShard calls fn for every entry of shard i (0 <= i < ShardCount)
// until fn returns false, reporting whether iteration ran to completion.
// Like Range it snapshots the shard, so fn runs without the shard lock
// and concurrent scans of distinct shards never contend.
func (ix *Index[K]) RangeShard(i int, fn func(*Entry[K]) bool) bool {
	sh := &ix.shards[i]
	sh.mu.RLock()
	snapshot := make([]*Entry[K], 0, len(sh.entries))
	for _, e := range sh.entries {
		snapshot = append(snapshot, e)
	}
	sh.mu.RUnlock()
	for _, e := range snapshot {
		if !fn(e) {
			return false
		}
	}
	return true
}

// Entries returns the number of live entries.
func (ix *Index[K]) Entries() int64 { return ix.entryCount.Load() }

// Postings returns the number of live postings.
func (ix *Index[K]) Postings() int64 { return ix.postingCount.Load() }

// Census summarizes the in-memory frequency distribution the paper's
// Figure 1 and Section V-A discuss.
type Census struct {
	// Entries is the number of index entries.
	Entries int
	// KFilled counts entries holding at least k postings — queries on
	// these keys hit memory.
	KFilled int
	// Postings is the total posting count.
	Postings int
	// BeyondTopK counts postings outside their entry's top-k — the
	// paper's "useless microblogs".
	BeyondTopK int
}

// TakeCensus scans the index and reports the distribution snapshot for
// the current k.
func (ix *Index[K]) TakeCensus() Census {
	k := int(ix.k.Load())
	var c Census
	ix.Range(func(e *Entry[K]) bool {
		n := e.Len()
		c.Entries++
		c.Postings += n
		if n >= k {
			c.KFilled++
		}
		if n > k {
			c.BeyondTopK += n - k
		}
		return true
	})
	return c
}
