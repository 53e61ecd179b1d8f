// Package kflushing is a main-memory microblogs data management system
// with query-aware flushing, reproducing "On Main-memory Flushing in
// Microblogs Data Management Systems" (ICDE 2016).
//
// The system digests a high-rate microblog stream into an in-memory
// inverted index and answers top-k search queries (keyword, spatial, or
// user timeline; single key, AND, OR) from memory, falling back to a
// disk tier on a miss. When the configured memory budget fills, a
// flushing policy evicts part of memory to disk. Four policies are
// provided:
//
//   - PolicyKFlushing — the paper's contribution: trims postings that
//     can never appear in a top-k answer, then evicts under-filled
//     entries by arrival recency, then full entries by query recency.
//   - PolicyKFlushingMK — the multiple-keyword extension that raises
//     AND-query hit ratios.
//   - PolicyFIFO — temporally segmented flushing (the behaviour of
//     existing microblog systems).
//   - PolicyLRU — H-Store-style anti-caching over individual records.
//
// Quick start:
//
//	sys, err := kflushing.Open(dir, kflushing.Options{Policy: kflushing.PolicyKFlushing})
//	if err != nil { ... }
//	defer sys.Close()
//	sys.Ingest(&kflushing.Microblog{Keywords: []string{"gophers"}, Text: "..."})
//	res, err := sys.Search([]string{"gophers"}, kflushing.OpSingle, 20)
package kflushing

import (
	"fmt"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/engine"
	"kflushing/internal/query"
	"kflushing/internal/ranking"
	"kflushing/internal/trace"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// Re-exported data model and query types. The implementation lives in
// internal packages; these aliases are the public names.
type (
	// Microblog is one stream record.
	Microblog = types.Microblog
	// ID identifies an ingested microblog.
	ID = types.ID
	// Timestamp is the logical or wall-clock time of a record.
	Timestamp = types.Timestamp
	// Op combines the keys of a multi-key query.
	Op = query.Op
	// Result is a ranked query answer with hit/miss provenance.
	Result = query.Result
	// Item is one ranked answer.
	Item = query.Item
	// Ranker scores records at arrival; see Temporal, Popularity and
	// Weighted in this package.
	Ranker = ranking.Ranker
	// Clock supplies timestamps; see NewLogicalClock and WallClock.
	Clock = clock.Clock
	// Stats summarizes a system's state and counters.
	Stats = engine.Stats
	// Trace is a per-query execution trace; see the *Traced search
	// variants.
	Trace = trace.Trace
	// FlushEvent is one flush cycle — trigger, phases, stages, outcome —
	// reassembled from the flight-recorder events that carry its ID; see
	// System.FlushLog.
	FlushEvent = blackbox.FlushCycle
	// RetryPolicy bounds retries around transient disk errors; see
	// Options.DiskRetry.
	RetryPolicy = disk.RetryPolicy
	// DiskHealth is a cheap probe-path view of the disk tier's levels
	// and the flush batch in flight; see the DiskHealth system methods.
	DiskHealth = engine.DiskHealth
	// LevelStats summarizes one level of a leveled disk tier.
	LevelStats = disk.LevelStats
	// BlackboxEvent is one flight-recorder event; see System.BlackboxEvents.
	BlackboxEvent = blackbox.Event
	// TimelineEvent is a flight-recorder event tagged with the attribute
	// system it came from, for multi-system merged timelines.
	TimelineEvent = blackbox.TimelineEvent
	// SlowQuery is one search that reached Options.SlowQueryNanos, with
	// its stage timings and keys; see System.SlowQueries.
	SlowQuery = blackbox.SlowQuery
)

// ErrDegraded reports the system is in degraded read-only mode: a flush
// cycle failed to persist evicted records even after retries, so ingest
// calls are rejected (the eviction itself was rolled back — no acked
// record is lost). Searches keep answering throughout. The system
// leaves degraded mode on its own once a tier write or readiness probe
// (Ready) succeeds. Test with errors.Is.
var ErrDegraded = engine.ErrDegraded

// Query operators.
const (
	// OpSingle queries one key.
	OpSingle = query.OpSingle
	// OpOr matches any key.
	OpOr = query.OpOr
	// OpAnd matches all keys.
	OpAnd = query.OpAnd
)

// Ranking functions (Section IV-B).
var (
	// Temporal ranks most recent first — the paper's default.
	Temporal Ranker = ranking.Temporal{}
	// Popularity ranks by the author's follower count.
	Popularity Ranker = ranking.Popularity{}
)

// NewWeightedRanker blends recency (weight alpha) with popularity.
func NewWeightedRanker(alpha, timeScale float64) Ranker {
	return ranking.Weighted{Alpha: alpha, TimeScale: timeScale}
}

// NewLogicalClock returns a deterministic clock starting at start that
// advances by step per reading.
func NewLogicalClock(start Timestamp, step int64) *clock.Logical {
	return clock.NewLogical(start, step)
}

// WallClock returns the operating-system clock.
func WallClock() Clock { return clock.Wall{} }

// PolicyKind names a flushing policy.
type PolicyKind string

// Available flushing policies.
const (
	PolicyKFlushing   PolicyKind = core.NameKFlushing
	PolicyKFlushingMK PolicyKind = core.NameKFlushingMK
	PolicyFIFO        PolicyKind = core.NameFIFO
	PolicyLRU         PolicyKind = core.NameLRU
)

// Options configures a system. The zero value selects the paper's
// defaults: k=20, B=10%, kFlushing policy, temporal ranking.
type Options struct {
	// K is the default top-k result limit (default 20).
	K int
	// MemoryBudget is the modeled main-memory budget in bytes
	// (default 64 MiB).
	MemoryBudget int64
	// FlushFraction is the flushing budget B as a fraction of the
	// memory budget (default 0.10).
	FlushFraction float64
	// Policy selects the flushing policy (default PolicyKFlushing).
	Policy PolicyKind
	// Ranker scores records at arrival (default Temporal).
	Ranker Ranker
	// Clock is the time source (default: auto-advancing logical
	// clock; servers should pass WallClock()).
	Clock Clock
	// SyncFlush runs flushes and compactions inline with ingestion, for
	// deterministic tests and experiments (default: a budget-triggered
	// flush cycle, segment write and the compaction pass after it
	// included, runs on a background goroutine, and ingestion carries
	// on beside it).
	SyncFlush bool
	// DiskRetry bounds transient-disk-error retries with exponential
	// backoff: flush-cycle segment writes and memory-miss record reads
	// retry before failing (and, for writes, before the system enters
	// degraded read-only mode — see ErrDegraded). The zero value
	// disables retrying.
	DiskRetry RetryPolicy
	// Durable enables a write-ahead log in the system directory: memory
	// contents survive restarts and crashes, and the log's files are the
	// disk tier's record files, so a flush writes each record's frame
	// nowhere else. Off by default, matching the paper's model where only
	// flushed data is on disk.
	Durable bool
	// WALSyncEvery fsyncs the write-ahead log after this many ingests
	// when Durable is set; 0 relies on OS buffering.
	WALSyncEvery int
	// SlowQueryNanos records a query_slow event in the flight recorder
	// for any search that takes this many nanoseconds or longer: its
	// index/heap/disk/total timings, op, k, hit or miss, and the encoded
	// keys (see SlowQueries and the server's /debug/blackbox). 0
	// disables. Searches below the threshold pay nothing, and the
	// per-segment detail of a captured one is a re-run of its keys
	// through a *Traced search away.
	SlowQueryNanos int64
}

func (o *Options) fill() {
	if o.K <= 0 {
		o.K = 20
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 64 << 20
	}
	if o.FlushFraction <= 0 || o.FlushFraction > 1 {
		o.FlushFraction = 0.10
	}
	if o.Policy == "" {
		o.Policy = PolicyKFlushing
	}
	if o.Ranker == nil {
		o.Ranker = Temporal
	}
}

// AttrSystem is the attribute-independent part of a system: everything
// System, SpatialSystem and UserSystem share, defined once over the key
// type K. The three embed it and add only their constructor and the
// search methods that speak their attribute's vocabulary, so every
// method below is part of each system's method set. All methods are
// safe for concurrent use.
type AttrSystem[K comparable] struct {
	spec attr.Spec[K]
	eng  *engine.Engine[K]
}

// open maps the facade options onto one attribute's engine — the only
// place Options meets engine.Config.
func open[K comparable](dir string, opt Options, spec attr.Spec[K], st *engine.Stream) (AttrSystem[K], error) {
	return openWith(dir, opt, spec, 0, 0, alloc.PolicyPooled, st)
}

// openWith is open with the reference arms of the equivalence tests
// (export_test.go): a negative diskMaxSegments never compacts, a
// positive diskLevelFanout replaces the disk package's default, and
// alloc.PolicyHeap allocates the hot path from the Go heap, not pools.
// A nil st makes the system a stream of its own; otherwise it joins st,
// which the caller opens once every system has.
func openWith[K comparable](dir string, opt Options, spec attr.Spec[K], diskMaxSegments, diskLevelFanout int, ap alloc.Policy, st *engine.Stream) (AttrSystem[K], error) {
	opt.fill()
	pc, err := core.Choose[K](string(opt.Policy), int64(opt.FlushFraction*float64(opt.MemoryBudget)))
	if err != nil {
		return AttrSystem[K]{}, fmt.Errorf("kflushing: %w", err)
	}
	eng, err := engine.New(engine.Config[K]{
		K:               opt.K,
		MemoryBudget:    opt.MemoryBudget,
		FlushFraction:   opt.FlushFraction,
		Attr:            spec,
		Ranker:          opt.Ranker,
		Clock:           opt.Clock,
		DiskDir:         dir,
		DiskLevelFanout: diskLevelFanout,
		DiskMaxSegments: diskMaxSegments,
		DiskRetry:       opt.DiskRetry,
		Durable:         opt.Durable,
		WALOptions:      wal.Options{SyncEvery: opt.WALSyncEvery},
		Policy:          pc,
		SyncFlush:       opt.SyncFlush,
		AllocPolicy:     ap,
		SlowQueryNanos:  opt.SlowQueryNanos,
		Stream:          st,
	})
	return AttrSystem[K]{spec: spec, eng: eng}, err
}

// Attr names the attribute the system indexes: "keyword", "spatial" or
// "user".
func (s *AttrSystem[K]) Attr() string { return s.spec.Name }

// Indexes reports whether mb carries at least one key of this system's
// attribute (a keyword, a location, a posting user). Ingest rejects and
// IngestBatch skips a record for which it is false.
func (s *AttrSystem[K]) Indexes(mb *Microblog) bool { return len(s.spec.KeysOf(mb)) > 0 }

// Ingest digests one microblog, taking ownership of mb. A record the
// attribute cannot index (see Indexes) is rejected.
func (s *AttrSystem[K]) Ingest(mb *Microblog) (ID, error) { return s.eng.Ingest(mb) }

// IngestBatch digests a batch of microblogs in arrival order, taking
// ownership of every record. The write-ahead log (when durability is
// on) receives the whole batch as one group commit, so batching is the
// high-throughput ingestion path. Records the attribute cannot index
// (no keyword, no location, no posting user) are skipped and reported
// by a zero ID in the returned slice, which is aligned with mbs. On a
// system opened by OpenAttributes the batch goes to all three systems,
// each record to every one that indexes it under one ID, and a zero ID
// reports a record none of them indexes.
func (s *AttrSystem[K]) IngestBatch(mbs []*Microblog) ([]ID, error) { return s.eng.IngestBatch(mbs) }

// Search runs a top-k query over keys of the system's attribute.
// k <= 0 selects the system default.
func (s *AttrSystem[K]) Search(keys []K, op Op, k int) (Result, error) {
	return s.eng.Search(query.Request[K]{Keys: keys, Op: op, K: k})
}

// SearchTraced runs a top-k query and returns the execution trace
// alongside the result: which index entries were probed in memory, and
// on a miss which disk segments were consulted, with Bloom filter and
// read-cache outcomes and per-stage timings. Tracing allocates, so it
// is for diagnostics, not the hot path.
func (s *AttrSystem[K]) SearchTraced(keys []K, op Op, k int) (Result, *Trace, error) {
	tr := trace.New()
	res, err := s.eng.Search(query.Request[K]{Keys: keys, Op: op, K: k, Trace: tr})
	return res, tr, err
}

// FlushLog returns the most recent n flush cycles the flight recorder
// retains, oldest-first (all of them when n <= 0). It is a view over
// BlackboxEvents: each cycle is its ID's events — phases, then prepare,
// build, install and release — folded into one record; a cycle still
// running shows the stages it has and Complete false.
func (s *AttrSystem[K]) FlushLog(n int) []FlushEvent {
	cycles := blackbox.FlushCycles(s.eng.Blackbox().EventsOf(blackbox.SubFlush), blackbox.EpochUnixNanos())
	if n > 0 && len(cycles) > n {
		cycles = cycles[len(cycles)-n:]
	}
	policy := s.eng.Policy().Name()
	for i := range cycles {
		cycles[i].Policy = policy
	}
	return cycles
}

// BlackboxEvents returns the flight recorder's retained events across
// every subsystem, merged in sequence order. See the server's
// /debug/blackbox for the filtered view.
func (s *AttrSystem[K]) BlackboxEvents() []BlackboxEvent { return s.eng.Blackbox().Events() }

// SlowQueries returns the retained slow queries oldest-first (empty
// unless Options.SlowQueryNanos is set). Like FlushLog it is a view
// over BlackboxEvents.
func (s *AttrSystem[K]) SlowQueries() []SlowQuery {
	return blackbox.SlowQueries(s.eng.Blackbox().EventsOf(blackbox.SubQuery), blackbox.EpochUnixNanos())
}

// SetK changes the default top-k threshold at run time.
func (s *AttrSystem[K]) SetK(k int) { s.eng.SetK(k) }

// FlushNow forces one flush cycle, returning the bytes freed.
func (s *AttrSystem[K]) FlushNow() (int64, error) { return s.eng.FlushNow() }

// CompactNow runs leveled compaction passes until no disk level exceeds
// its fanout. Answers are unchanged throughout.
func (s *AttrSystem[K]) CompactNow() error { return s.eng.CompactNow() }

// CompactAll merges every disk segment into one. Intended for
// maintenance windows; answers are unchanged.
func (s *AttrSystem[K]) CompactAll() error { return s.eng.CompactAll() }

// Stats returns a snapshot of gauges, counters, and the index census.
func (s *AttrSystem[K]) Stats() Stats { return s.eng.Stats() }

// Err returns the most recent background flush error, if any.
func (s *AttrSystem[K]) Err() error { return s.eng.Err() }

// Ready verifies the system can serve writes: the disk tier directory
// is writable and, when durability is on, the write-ahead log accepts
// appends. It is the backing check of the server's /readyz endpoint.
func (s *AttrSystem[K]) Ready() error { return s.eng.CheckReady() }

// DiskHealth reports the disk tier's per-level layout and the flush
// batch in flight without the cost of a full Stats census.
func (s *AttrSystem[K]) DiskHealth() DiskHealth { return s.eng.DiskHealth() }

// Close drains background work and releases the disk tier. On a system
// opened by OpenAttributes it closes all three.
func (s *AttrSystem[K]) Close() error { return s.eng.Close() }

// Engine exposes the underlying generic engine for experiments.
func (s *AttrSystem[K]) Engine() *engine.Engine[K] { return s.eng }

// System is a keyword-search microblogs store: the paper's primary
// evaluation target. Search and SearchTraced take keywords; the rest of
// its methods are AttrSystem's.
type System struct {
	AttrSystem[string]
}

// Open creates a keyword system whose disk tier lives under dir.
func Open(dir string, opt Options) (*System, error) {
	as, err := open(dir, opt, attr.Keyword(), nil)
	if err != nil {
		return nil, err
	}
	return &System{as}, nil
}

// SearchKeyword runs a single-keyword top-k query.
func (s *System) SearchKeyword(keyword string, k int) (Result, error) {
	return s.Search([]string{keyword}, OpSingle, k)
}
