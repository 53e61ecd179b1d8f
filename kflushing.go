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
	"path/filepath"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/engine"
	"kflushing/internal/flushlog"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/ranking"
	"kflushing/internal/trace"
	"kflushing/internal/tuner"
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
	// FlushEvent is one audited flush cycle from the flush journal.
	FlushEvent = flushlog.Event
	// RetryPolicy bounds retries around transient disk errors; see
	// Options.DiskRetry.
	RetryPolicy = disk.RetryPolicy
	// DiskHealth is a cheap probe-path view of the disk tier's levels
	// and the flush pipeline queue; see the DiskHealth system methods.
	DiskHealth = engine.DiskHealth
	// LevelStats summarizes one level of a leveled disk tier.
	LevelStats = disk.LevelStats
	// BlackboxEvent is one flight-recorder event; see System.BlackboxEvents.
	BlackboxEvent = blackbox.Event
	// TimelineEvent is a flight-recorder event tagged with the attribute
	// system it came from, for multi-system merged timelines.
	TimelineEvent = blackbox.TimelineEvent
	// SlowQuery is one auto-captured slow-query trace; see
	// Options.SlowQueryNanos and System.SlowQueries.
	SlowQuery = blackbox.SlowQuery
	// TunerLimits bounds the adaptive memory tuner; see
	// Options.AdaptiveMemory.
	TunerLimits = tuner.Limits
	// TunerState is the adaptive memory tuner's snapshot; see
	// System.TunerState and the server's /debug/tuner.
	TunerState = tuner.State
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
	PolicyKFlushing   PolicyKind = "kflushing"
	PolicyKFlushingMK PolicyKind = "kflushing-mk"
	PolicyFIFO        PolicyKind = "fifo"
	PolicyLRU         PolicyKind = "lru"
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
	// MaxPhase caps kFlushing at phases 1..MaxPhase, for ablations
	// (default 3; ignored by FIFO and LRU).
	MaxPhase int
	// Ranker scores records at arrival (default Temporal).
	Ranker Ranker
	// Clock is the time source (default: auto-advancing logical
	// clock; servers should pass WallClock()).
	Clock Clock
	// SyncFlush runs flushes inline with ingestion, each cycle durable
	// before it returns, for deterministic tests and experiments
	// (default: a background flushing thread whose segment writes
	// overlap ingestion through a bounded pipeline).
	SyncFlush bool
	// DiskLevelFanout bounds the disk tier's per-level segment count
	// before the level merges into the next (0 selects the default of 4).
	DiskLevelFanout int
	// DiskMaxSegments: only the sign matters. Negative disables disk
	// compaction, so every flush stays its own segment — the naive
	// layout the equivalence tests and allocation benchmarks use as a
	// reference; zero or positive leaves DiskLevelFanout in charge.
	DiskMaxSegments int
	// DiskCacheBytes bounds the disk tier's decoded-record read cache,
	// which spares hot memory-missing keys repeated file reads (0
	// selects the default of 8 MiB; negative disables).
	DiskCacheBytes int64
	// DiskRetry bounds transient-disk-error retries with exponential
	// backoff: flush-cycle segment writes and memory-miss record reads
	// retry before failing (and, for writes, before the system enters
	// degraded read-only mode — see ErrDegraded). The zero value
	// disables retrying.
	DiskRetry RetryPolicy
	// Durable enables a write-ahead log under the system directory:
	// memory contents survive restarts and crashes. Off by default,
	// matching the paper's model where only flushed data is on disk.
	Durable bool
	// WALSyncEvery fsyncs the write-ahead log after this many ingests
	// when Durable is set; 0 relies on OS buffering.
	WALSyncEvery int
	// BlackboxEvents sizes the per-subsystem flight-recorder rings (0
	// selects the default of 1024 events per subsystem; negative disables
	// the recorder entirely). The recorder is always-on and lock-free —
	// its hot-path cost is a few atomic stores — so disabling it is for
	// measurement, not production.
	BlackboxEvents int
	// SlowQueryNanos auto-captures a full execution trace for any search
	// slower than this many nanoseconds into an in-memory slow-query log
	// (see SlowQueries and the server's /debug/slowlog). 0 disables.
	// Tracing a query disables miss coalescing for it, so a traced miss
	// pays its own disk search.
	SlowQueryNanos int64
	// AllocPolicy selects how the hot ingest path allocates: "pooled"
	// (the default, also selected by "") recycles posting arrays,
	// record wrappers and per-batch scratch through slab pools so
	// sustained ingestion is allocation-flat; "heap" allocates
	// everything from the Go heap — the baseline pooling is
	// benchmarked against.
	AllocPolicy string
	// AdaptiveMemory enables the feedback memory tuner: a deterministic
	// controller that observes flush cost and memory-miss cost and
	// retunes the flush budget B, the flush trigger watermark, and the
	// disk record cache size within Tuner's bounds, applied only
	// between flush cycles. Off by default. With every bound pinned to
	// the static value the system is bit-equivalent to a static
	// configuration (the tuner ticks but never emits a change).
	AdaptiveMemory bool
	// Tuner bounds the adaptive memory tuner when AdaptiveMemory is
	// set; zero values select the defaults documented on TunerLimits.
	Tuner TunerLimits
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
	if o.MaxPhase == 0 {
		o.MaxPhase = 3
	}
	if o.Ranker == nil {
		o.Ranker = Temporal
	}
}

// policyChoice carries a constructed policy with the index features it
// needs.
type policyChoice[K comparable] struct {
	pol        policy.Policy[K]
	trackTopK  bool
	trackOverK bool
}

// newPolicy instantiates the configured policy for key type K.
func newPolicy[K comparable](o Options) (policyChoice[K], error) {
	switch o.Policy {
	case PolicyKFlushing:
		return policyChoice[K]{pol: core.New(core.WithMaxPhase[K](o.MaxPhase)), trackOverK: true}, nil
	case PolicyKFlushingMK:
		return policyChoice[K]{pol: core.NewMK(core.WithMaxPhase[K](o.MaxPhase)), trackTopK: true, trackOverK: true}, nil
	case PolicyFIFO:
		seg := int64(o.FlushFraction * float64(o.MemoryBudget))
		return policyChoice[K]{pol: policy.NewFIFO[K](seg)}, nil
	case PolicyLRU:
		return policyChoice[K]{pol: policy.NewLRU[K]()}, nil
	default:
		return policyChoice[K]{}, fmt.Errorf("kflushing: unknown policy %q", o.Policy)
	}
}

// newEngine maps the facade options onto one attribute's engine — the
// only place Options meets engine.Config. The four functions are the
// attribute: key extraction, shard hash, key size, disk encoding.
func newEngine[K comparable](dir string, opt Options,
	keysOf func(*Microblog) []K, hash func(K) uint64, keyLen func(K) int, encode func(K) string,
) (*engine.Engine[K], error) {
	opt.fill()
	pc, err := newPolicy[K](opt)
	if err != nil {
		return nil, err
	}
	ap, err := alloc.ParsePolicy(opt.AllocPolicy)
	if err != nil {
		return nil, err
	}
	walDir := "" // durability off: only flushed data is on disk
	if opt.Durable {
		walDir = filepath.Join(dir, "wal")
	}
	return engine.New(engine.Config[K]{
		K:               opt.K,
		MemoryBudget:    opt.MemoryBudget,
		FlushFraction:   opt.FlushFraction,
		KeysOf:          keysOf,
		KeyHash:         hash,
		KeyLen:          keyLen,
		EncodeKey:       encode,
		Ranker:          opt.Ranker,
		Clock:           opt.Clock,
		DiskDir:         dir,
		DiskLevelFanout: opt.DiskLevelFanout,
		DiskMaxSegments: opt.DiskMaxSegments,
		DiskCacheBytes:  opt.DiskCacheBytes,
		DiskRetry:       opt.DiskRetry,
		WALDir:          walDir,
		WALOptions:      wal.Options{SyncEvery: opt.WALSyncEvery},
		Policy:          pc.pol,
		TrackTopK:       pc.trackTopK,
		TrackOverK:      pc.trackOverK,
		SyncFlush:       opt.SyncFlush,
		AllocPolicy:     ap,
		BlackboxEvents:  opt.BlackboxEvents,
		SlowQueryNanos:  opt.SlowQueryNanos,
		AdaptiveMemory:  opt.AdaptiveMemory,
		TunerLimits:     opt.Tuner,
	})
}

// System is a keyword-search microblogs store: the paper's primary
// evaluation target. All methods are safe for concurrent use.
type System struct {
	eng *engine.Engine[string]
}

// Open creates a keyword system whose disk tier lives under dir.
func Open(dir string, opt Options) (*System, error) {
	eng, err := newEngine(dir, opt, attr.KeywordKeys, attr.HashString, attr.KeywordLen, attr.KeywordEncode)
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Ingest digests one microblog, taking ownership of mb. Records without
// keywords are rejected.
func (s *System) Ingest(mb *Microblog) (ID, error) { return s.eng.Ingest(mb) }

// IngestBatch digests a batch of microblogs in arrival order, taking
// ownership of every record. The write-ahead log (when durability is
// on) receives the whole batch as one group commit, so batching is the
// high-throughput ingestion path. Records without keywords are skipped
// and reported by a zero ID in the returned slice, which is aligned
// with mbs.
func (s *System) IngestBatch(mbs []*Microblog) ([]ID, error) { return s.eng.IngestBatch(mbs) }

// Search runs a top-k keyword query. k <= 0 selects the system default.
func (s *System) Search(keywords []string, op Op, k int) (Result, error) {
	return s.eng.Search(query.Request[string]{Keys: keywords, Op: op, K: k})
}

// SearchKeyword runs a single-keyword top-k query.
func (s *System) SearchKeyword(keyword string, k int) (Result, error) {
	return s.Search([]string{keyword}, OpSingle, k)
}

// SearchTraced runs a top-k keyword query and returns the execution
// trace alongside the result: which index entries were probed in
// memory, and on a miss which disk segments were consulted, with Bloom
// filter and read-cache outcomes and per-stage timings. Tracing
// allocates, so it is for diagnostics, not the hot path.
func (s *System) SearchTraced(keywords []string, op Op, k int) (Result, *Trace, error) {
	tr := trace.New()
	res, err := s.eng.Search(query.Request[string]{Keys: keywords, Op: op, K: k, Trace: tr})
	return res, tr, err
}

// FlushLog returns the most recent n audited flush cycles oldest-first
// (all retained cycles when n <= 0).
func (s *System) FlushLog(n int) []FlushEvent { return s.eng.Journal().Last(n) }

// BlackboxEvents returns the flight recorder's retained events across
// every subsystem, merged in sequence order (empty when the recorder is
// disabled). See the server's /debug/blackbox for the filtered view.
func (s *System) BlackboxEvents() []BlackboxEvent { return s.eng.Blackbox().Events() }

// SlowQueries returns the retained auto-captured slow-query traces
// oldest-first (empty unless Options.SlowQueryNanos is set).
func (s *System) SlowQueries() []SlowQuery { return s.eng.SlowLog().Snapshot() }

// SetK changes the default top-k threshold at run time.
func (s *System) SetK(k int) { s.eng.SetK(k) }

// FlushNow forces one flush cycle, returning the bytes freed.
func (s *System) FlushNow() (int64, error) { return s.eng.FlushNow() }

// CompactNow runs leveled compaction passes until no disk level exceeds
// its fanout. Answers are unchanged throughout.
func (s *System) CompactNow() error { return s.eng.CompactNow() }

// CompactAll merges every disk segment into one. Intended for
// maintenance windows; answers are unchanged.
func (s *System) CompactAll() error { return s.eng.CompactAll() }

// Stats returns a snapshot of gauges, counters, and the index census.
func (s *System) Stats() Stats { return s.eng.Stats() }

// TunerState reports the adaptive memory tuner's snapshot; ok is false
// when Options.AdaptiveMemory is off.
func (s *System) TunerState() (TunerState, bool) { return s.eng.TunerState() }

// Err returns the most recent background flush error, if any.
func (s *System) Err() error { return s.eng.Err() }

// Ready verifies the system can serve writes: the disk tier directory
// is writable and, when durability is on, the write-ahead log accepts
// appends. It is the backing check of the server's /readyz endpoint.
func (s *System) Ready() error { return s.eng.CheckReady() }

// DiskHealth reports the disk tier's per-level layout and the flush
// pipeline queue depth without the cost of a full Stats census.
func (s *System) DiskHealth() DiskHealth { return s.eng.DiskHealth() }

// Close drains background work and releases the disk tier.
func (s *System) Close() error { return s.eng.Close() }

// Engine exposes the underlying generic engine for experiments.
func (s *System) Engine() *engine.Engine[string] { return s.eng }
