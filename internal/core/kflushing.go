// Package core implements kFlushing, the paper's contribution: a
// query-aware main-memory flushing policy for top-k microblog search.
//
// kFlushing runs three consecutive phases, each invoked only when its
// predecessors could not free the requested budget B:
//
//	Phase 1 — regular flushing (Section III-A): trim the postings ranked
//	outside the top-k of every over-full index entry. These are the
//	"useless microblogs" that can never appear in a top-k answer; on
//	real data they occupy ~75% of memory for k=20. The over-k entries
//	are found through the list L maintained at insertion time, so the
//	phase never scans the whole key space.
//
//	Phase 2 — aggressive flushing (Section III-B): evict whole entries
//	holding fewer than k postings. The paper's premise is that queries
//	on them would miss anyway; under exact hits that holds only for an
//	entry whose key already lost a posting, since a complete entry
//	answers every query from memory. So the phase takes first the
//	stale non-complete entries — those that gained no posting since
//	the previous Phase 2 scan — and only then the rest. Inside each
//	class victims are the least recently *arrived* entries, selected
//	by a single-pass O(n) heap algorithm rather than an O(n log n) sort.
//
//	Phase 3 — forced flushing (Section III-C): every remaining entry
//	holds exactly k postings and anything flushed may now cost hits, so
//	evict the least recently *queried* entries — query streams show
//	strong temporal locality, so recently queried keys stay.
//
// The MK variant (Section IV-D) retains a posting in all of its entries
// while it remains inside the top-k of any entry, trading a little
// memory for higher AND-query hit ratios.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
	"kflushing/internal/index"
	"kflushing/internal/policy"
	"kflushing/internal/store"
)

// KFlushing implements policy.Policy. The zero value is not usable; use
// New or NewMK.
type KFlushing[K comparable] struct {
	// maxPhase caps execution for ablation studies: 1 runs only regular
	// flushing, 2 adds aggressive flushing, 3 (default) all phases.
	maxPhase int
	// mk enables the multiple-keyword extension.
	mk bool
	// selector picks Phase 2/3 victims; the heap selector is the
	// paper's O(n) algorithm, the sort selector the strawman baseline.
	selector Selector[K]
	// parallelism caps the flush worker pool; 0 selects
	// min(GOMAXPROCS, index shards). 1 forces sequential flushing.
	parallelism int
	// frontier is the newest arrival the last Phase 2 scan saw: an
	// under-k entry that arrived no later is stale (see phase2).
	frontier atomic.Int64

	r *policy.Resources[K]
}

// Option configures a KFlushing policy.
type Option[K comparable] func(*KFlushing[K])

// WithMaxPhase caps the executed phases at p in [1,3], for the Figure 5
// ablation.
func WithMaxPhase[K comparable](p int) Option[K] {
	return func(f *KFlushing[K]) {
		if p >= 1 && p <= 3 {
			f.maxPhase = p
		}
	}
}

// WithSelector overrides the Phase 2/3 victim selector.
func WithSelector[K comparable](s Selector[K]) Option[K] {
	return func(f *KFlushing[K]) { f.selector = s }
}

// WithParallelism caps the worker pool used by the shard-parallel flush
// paths (Phase 1 trimming and the Phase 2/3 victim scans). 0 restores
// the default of min(GOMAXPROCS, index shards); 1 forces the sequential
// execution used as the benchmark baseline.
func WithParallelism[K comparable](n int) Option[K] {
	return func(f *KFlushing[K]) {
		if n < 0 {
			n = 0
		}
		f.parallelism = n
		switch s := f.selector.(type) {
		case HeapSelector[K]:
			s.Workers = n
			f.selector = s
		case SortSelector[K]:
			s.Workers = n
			f.selector = s
		}
	}
}

// New returns the kFlushing policy for single-key workloads.
func New[K comparable](opts ...Option[K]) *KFlushing[K] {
	f := &KFlushing[K]{maxPhase: 3, selector: HeapSelector[K]{}}
	for _, o := range opts {
		o(f)
	}
	return f
}

// NewMK returns the kFlushing-MK policy with the multiple-keyword
// extension enabled. The index must be built with TrackTopK.
func NewMK[K comparable](opts ...Option[K]) *KFlushing[K] {
	f := New(opts...)
	f.mk = true
	return f
}

// Name implements policy.Policy.
func (f *KFlushing[K]) Name() string {
	if f.mk {
		return NameKFlushingMK
	}
	return NameKFlushing
}

// MK reports whether the multiple-keyword extension is active.
func (f *KFlushing[K]) MK() bool { return f.mk }

// Attach implements policy.Policy.
func (f *KFlushing[K]) Attach(r *policy.Resources[K]) { f.r = r }

// OnIngest implements policy.Policy. kFlushing needs no per-ingest work
// beyond what the index already maintains (the over-k list and
// per-entry arrival timestamps) — batches included. Nor per-query work:
// the query engine writes each entry's last-queried timestamp, and no
// per-record tracking is needed — the policy's overhead advantage over
// LRU — so kFlushing is no policy.AccessObserver.
func (f *KFlushing[K]) OnIngest([]*store.Record, [][]K) {}

// Flush implements policy.Policy, running the phases in order until the
// target is met. Each phase's victims, duration and freed bytes are
// reported to the engine when attached.
func (f *KFlushing[K]) Flush(target int64) (policy.Batch, error) {
	k := f.r.Index.K()
	buf := policy.NewVictimBuffer(f.r.Mem, true)
	freed := f.timedPhase(blackbox.PhaseRegular, func(pr *phaseRun) int64 {
		return f.phase1(k, buf, pr)
	})
	// The inter-phase failpoints model a failure (or crash) with the
	// victim buffer partially filled: everything evicted so far must
	// still reach the engine, which persists it or rolls it back, so the
	// batch is returned on the error path too.
	err := failpoint.Eval(failpoint.FlushAfterPhase1)
	if err == nil && freed < target && f.maxPhase >= 2 {
		freed += f.timedPhase(blackbox.PhaseAggressive, func(pr *phaseRun) int64 {
			return f.phase2(k, target-freed, buf, pr)
		})
	}
	if err == nil {
		err = failpoint.Eval(failpoint.FlushAfterPhase2)
	}
	if err == nil && freed < target && f.maxPhase >= 3 {
		freed += f.timedPhase(blackbox.PhaseForced, func(pr *phaseRun) int64 {
			return f.phase3(k, target-freed, buf, pr)
		})
	}
	b := buf.Close()
	b.Freed = freed
	return b, err
}

// phaseRun is what a phase reports besides the bytes it freed: its
// victim count, how many victims were complete entries and, when it ran
// in parallel, each worker's duration.
type phaseRun struct {
	victims     int64
	complete    atomic.Int64 // Phase 1 workers add concurrently
	workerNanos []int64
}

// remove evicts through the shared release path and counts a victim
// that was complete.
func (f *KFlushing[K]) remove(e *index.Entry[K], k int, scope index.Scope, keep func(*store.Record) bool, buf *policy.VictimBuffer, pr *phaseRun) int64 {
	freed, complete := f.r.Remove(e, k, scope, keep, buf)
	if complete {
		pr.complete.Add(1)
	}
	return freed
}

// timedPhase runs one phase and reports it to the engine.
func (f *KFlushing[K]) timedPhase(phase int, run func(*phaseRun) int64) int64 {
	start := time.Now()
	var pr phaseRun
	freed := run(&pr)
	f.r.Phase(phase, pr.victims, pr.complete.Load(), freed, time.Since(start), pr.workerNanos)
	return freed
}

// parallelMinWork is the smallest work-unit count worth fanning out over
// goroutines; below it the spawn cost dominates any speedup.
const parallelMinWork = 32

// workers returns the flush worker-pool size for a task of `work`
// independent units: min(GOMAXPROCS, index shards), capped by the work
// itself, and 1 when the task is too small to amortize goroutine spawns.
func (f *KFlushing[K]) workers(work int) int {
	if work < parallelMinWork && f.parallelism == 0 {
		return 1
	}
	n := f.parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if s := f.r.Index.ShardCount(); n > s {
		n = s
	}
	if n > work {
		n = work
	}
	if n < 1 {
		n = 1
	}
	return n
}

// phase1 trims all postings beyond the top-k of every entry in the
// over-k list L. It intentionally ignores the budget: useless postings
// are free wins, so the phase removes them all (Figure 5(a) shows early
// Phase 1 runs flushing far more than B).
//
// The entries of L are independent work units (each trim takes only its
// own entry lock; record release, memory accounting, and the victim
// buffer are all concurrency-safe), so the list is split over a bounded
// worker pool and the per-worker freed-byte counts are merged — this is
// the digestion-side half of running flushing truly concurrently with a
// multi-core ingest path.
func (f *KFlushing[K]) phase1(k int, buf *policy.VictimBuffer, pr *phaseRun) int64 {
	var keep func(*store.Record) bool
	if f.mk {
		// MK retention rule: a posting beyond this entry's top-k stays
		// while it is still a top-k posting somewhere else.
		keep = func(rec *store.Record) bool { return rec.TopKCount() > 0 }
	}
	entries := f.r.Index.TakeOverK()
	pr.victims = int64(len(entries))
	workers := f.workers(len(entries))
	if workers <= 1 {
		return f.trimEntries(entries, k, keep, buf, pr)
	}
	freedBy := make([]int64, workers)
	shardNanos := make([]int64, workers)
	var wg sync.WaitGroup
	spawned := 0
	chunk := (len(entries) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(entries))
		if lo >= hi {
			break
		}
		spawned++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ws := time.Now()
			freedBy[w] = f.trimEntries(entries[lo:hi], k, keep, buf, pr)
			shardNanos[w] = time.Since(ws).Nanoseconds()
		}(w, lo, hi)
	}
	wg.Wait()
	pr.workerNanos = shardNanos[:spawned]
	var freed int64
	for _, n := range freedBy {
		freed += n
	}
	return freed
}

// trimEntries runs the Phase 1 trim over one worker's slice of the
// over-k list. An entry the MK retention rule leaves above k goes back
// on L for the next Phase 1.
func (f *KFlushing[K]) trimEntries(entries []*index.Entry[K], k int, keep func(*store.Record) bool, buf *policy.VictimBuffer, pr *phaseRun) int64 {
	var freed int64
	for _, e := range entries {
		freed += f.remove(e, k, index.BeyondTopK, keep, buf, pr)
	}
	return freed
}

// Phase 2 victim classes, taken in this order.
const (
	// classStale: a non-complete under-k entry that gained no posting
	// since the previous Phase 2 scan. Its key lost a posting, so the
	// entry answers only the queries its postings fill, and nothing is
	// refilling it.
	classStale = iota
	// classOther: every other under-k entry. A complete one answers
	// every query from memory; a refilling one is on its way back to k.
	classOther
)

// phase2 evicts whole under-k entries until target bytes are freed:
// stale non-complete entries first, then the rest, least recently
// arrived first inside each class.
//
// Staleness is measured against the frontier, the newest arrival the
// previous scan saw; every scan raises it by atomic max, so its value
// depends on the entries alone, not on scan order or worker count. The
// guard keeps a hot key that was evicted once from starving: its next
// entry is non-complete, but it gains postings between scans, so it
// ranks with the complete entries until it refills to k.
func (f *KFlushing[K]) phase2(k int, target int64, buf *policy.VictimBuffer, pr *phaseRun) int64 {
	prev := f.frontier.Load()
	victims := f.selector.Select(f.r.Index, target, func(e *index.Entry[K]) (int, int64, bool) {
		_, n, ceiling := e.Probe(0)
		if n == 0 {
			return 0, 0, false
		}
		ts := int64(e.LastArrival())
		f.raiseFrontier(ts)
		if n >= k {
			return 0, 0, false
		}
		if !ceiling.Complete() && ts <= prev {
			return classStale, ts, true
		}
		return classOther, ts, true
	})
	var freed int64
	for _, e := range victims {
		if freed >= target {
			break
		}
		pr.victims++
		var keep func(*store.Record) bool
		if f.mk {
			// Extended rule: keep postings that also live in a
			// frequent (>= k postings) entry, so AND queries pairing
			// this key with a frequent one can still be answered from
			// memory. The victim entry itself is excluded: its lock
			// is held while the predicate runs.
			victim := e
			keep = func(rec *store.Record) bool { return f.inFrequentEntryExcept(rec, k, victim) }
		}
		freed += f.remove(e, k, index.AllPostings, keep, buf, pr)
	}
	return freed
}

// raiseFrontier lifts the frontier to ts by atomic max.
func (f *KFlushing[K]) raiseFrontier(ts int64) {
	for cur := f.frontier.Load(); ts > cur; cur = f.frontier.Load() {
		if f.frontier.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// phase3 evicts entries in least-recently-queried order regardless of
// size. Per Section IV-D, Phase 3 is identical under MK: everything
// still in memory could cause a hit, so victims are chosen purely by
// query recency.
func (f *KFlushing[K]) phase3(k int, target int64, buf *policy.VictimBuffer, pr *phaseRun) int64 {
	victims := f.selector.Select(f.r.Index, target, func(e *index.Entry[K]) (int, int64, bool) {
		if e.Len() == 0 {
			return 0, 0, false
		}
		return 0, int64(e.LastQueried()), true
	})
	var freed int64
	for _, e := range victims {
		if freed >= target {
			break
		}
		pr.victims++
		freed += f.remove(e, k, index.AllPostings, nil, buf, pr)
	}
	return freed
}

// inFrequentEntryExcept reports whether rec is currently referenced by
// an index entry other than except holding at least k postings. The
// exclusion matters for correctness and locking: the caller holds
// except's lock, and a key being evicted cannot count as the frequent
// partner anyway.
func (f *KFlushing[K]) inFrequentEntryExcept(rec *store.Record, k int, except *index.Entry[K]) bool {
	for _, key := range f.r.KeysOf(rec.MB) {
		e := f.r.Index.Entry(key)
		if e == nil || e == except {
			continue
		}
		if e.Len() >= k && e.Contains(rec) {
			return true
		}
	}
	return false
}

// OverheadBytes reports kFlushing's bookkeeping: one arrival and one
// query timestamp per *entry* (not per item), the over-k list L, the MK
// top-k counters when enabled, and the peak temporary flush buffer.
func (f *KFlushing[K]) OverheadBytes() int64 {
	n := f.r.Index.Entries()*16 + int64(f.r.Index.OverKLen())*8
	if f.mk {
		n += f.r.Mem.Records() * 4 // one top-k membership counter per record
	}
	return n + f.r.Mem.PeakTemp()
}
