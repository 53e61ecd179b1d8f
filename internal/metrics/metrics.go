// Package metrics collects the performance measures the paper evaluates:
// memory hit ratio (the headline metric), digestion counts, flushing
// activity, and query latencies split by hit/miss.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two histogram buckets. The span
// covers 1 ns up to 2^48 ns (~3.3 days); longer observations clamp into
// the last bucket.
const HistBuckets = 48

// Histogram is a lock-free power-of-two latency histogram. Bucket i
// counts observations in [2^i, 2^(i+1)) nanoseconds.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration. Sub-nanosecond durations count as 1 ns.
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 1 {
		n = 1
	}
	// 63-LeadingZeros64 is floor(log2 n), so n lands in [2^b, 2^(b+1))
	// exactly as the bucket contract documents.
	b := 63 - bits.LeadingZeros64(uint64(n))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation, or 0 with no data.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0,1]) using bucket upper edges.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(int64(1) << uint(i+1))
		}
	}
	return time.Duration(int64(1) << uint(len(h.buckets)))
}

// HistogramSnapshot is a point-in-time copy of a histogram, the raw
// material for the Prometheus cumulative _bucket/_sum/_count series.
// Counts[i] is the (non-cumulative) count of bucket i, whose upper bound
// is 2^(i+1) nanoseconds; Sum is in nanoseconds.
type HistogramSnapshot struct {
	Counts [HistBuckets]int64 `json:"-"`
	Count  int64              `json:"-"`
	Sum    int64              `json:"-"`
}

// BucketUpperNanos returns bucket i's exclusive upper bound in
// nanoseconds (the Prometheus `le` edge).
func BucketUpperNanos(i int) int64 { return int64(1) << uint(i+1) }

// Snap copies the histogram. The copy is not atomic across buckets —
// concurrent observations may land between bucket loads — so Count is
// derived from the loaded buckets rather than the live counter: the
// +Inf cumulative bucket and _count then always agree, which the
// Prometheus exposition requires.
func (h *Histogram) Snap() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// FlushPhases is the number of instrumented flushing phases: kFlushing's
// regular, aggressive, and forced phases (Sections III-A..C). Phase i of
// the paper maps to index i-1.
const FlushPhases = 3

// FlushStages is the number of pipeline stages a flush passes through:
// prepare (victim selection + eviction under the flush gate), build
// (segment encode + staged write + fsync, off the gate), install
// (atomic rename + manifest commit + level append), release (log claims
// given back and wrappers recycled, or eviction rollback on failure;
// never a wait for the gate).
const FlushStages = 4

// Stage indices for ObserveStage.
const (
	StagePrepare = iota
	StageBuild
	StageInstall
	StageRelease
)

// StageNames labels the pipeline stages, index-aligned with the Stage*
// constants and the StageLatency histograms.
var StageNames = [FlushStages]string{"prepare", "build", "install", "release"}

// QueryStages is the number of instrumented query stages: parse (HTTP
// parameter decoding in the server), index (memory index gather over the
// query keys), heap (the in-memory merge — top-k heap, OR merge, or AND
// intersection), disk (tier fallback search plus the memory/disk merge;
// zero observations while every query hits memory).
const QueryStages = 4

// Query stage indices for ObserveQueryStage.
const (
	QStageParse = iota
	QStageIndex
	QStageHeap
	QStageDisk
)

// QueryStageNames labels the query stages, index-aligned with the
// QStage* constants and the QueryStageLatency histograms.
var QueryStageNames = [QueryStages]string{"parse", "index", "heap", "disk"}

// DepartedSources is the number of ways a search's read of the
// departure record, for a key without an index entry, can be served:
// none (the key never departed), a ghost (its own ceiling) or a floor
// (a ceiling shared with the keys folded into it).
const DepartedSources = 3

// DepartedSourceNames labels the departure-record sources,
// index-aligned with index.Source and the DepartedReads counters.
var DepartedSourceNames = [DepartedSources]string{"none", "ghost", "floor"}

// Outcome is how a query was answered.
type Outcome int

const (
	// Miss: memory could not prove its candidates are the answer, so
	// the disk tier was searched.
	Miss Outcome = iota
	// HitFilled: every queried key held k postings ranking above all it
	// ever lost (an AND query: the intersection did) — the paper's
	// Section IV-D hit.
	HitFilled
	// HitComplete: any other exact answer from memory. A queried key
	// never lost a posting, or (single key, OR) the merged k-th ranks
	// above everything its keys lost while some key holds fewer than k
	// or lost postings ranked above its own k-th.
	HitComplete
)

// Reason names a hit's reason as /metrics labels it: "filled",
// "complete", or "" for a miss.
func (o Outcome) Reason() string {
	switch o {
	case HitFilled:
		return "filled"
	case HitComplete:
		return "complete"
	}
	return ""
}

// Registry aggregates one engine's counters. All methods are safe for
// concurrent use.
type Registry struct {
	// Ingested counts the records admitted to memory, the ones a durable
	// store replays from its log at open included.
	Ingested atomic.Int64
	// IngestBatches counts batched ingestion calls (a per-record Ingest
	// is a batch of one), so batch amortization is observable, and the
	// batches replay admits.
	IngestBatches atomic.Int64

	Queries atomic.Int64
	Hits    atomic.Int64
	Misses  atomic.Int64

	// Hits by reason: FilledHits + CompleteHits == Hits.
	FilledHits, CompleteHits atomic.Int64

	// Per-operator hit/miss breakdown: single, or, and, and the hits of
	// each that were complete (the rest were filled).
	SingleHits, SingleMisses, SingleCompleteHits atomic.Int64
	OrHits, OrMisses, OrCompleteHits             atomic.Int64
	AndHits, AndMisses, AndCompleteHits          atomic.Int64

	Flushes      atomic.Int64
	FlushedBytes atomic.Int64

	// DepartedReads counts a search's departure-record reads for keys
	// without an entry, by source (index = index.Source).
	DepartedReads [DepartedSources]atomic.Int64

	// DiskSearches counts searches executed against the disk tier: one
	// per memory miss.
	DiskSearches atomic.Int64

	// FlushLatency observes whole flush cycles, every policy.
	FlushLatency Histogram
	// PhaseLatency and PhaseFreed break a kFlushing flush down by phase
	// (index = phase-1), making the shard-parallel Phase 1 speedup and
	// each phase's contribution observable at /metrics.
	PhaseLatency [FlushPhases]Histogram
	PhaseFreed   [FlushPhases]atomic.Int64
	// PhaseCompleteVictims counts each phase's victims that were
	// complete entries: keys that had never lost a posting, which
	// answered every query from memory until the phase took them.
	PhaseCompleteVictims [FlushPhases]atomic.Int64

	// StageLatency breaks a flush down by pipeline stage (index = the
	// Stage* constants): prepare runs under the flush gate, build and
	// install on the tier, release on completion.
	StageLatency [FlushStages]Histogram

	// QueryStageLatency attributes query latency to its stages (index =
	// the QStage* constants): where a slow query actually spent its time,
	// without requiring trace=1.
	QueryStageLatency [QueryStages]Histogram

	// PipelineDepth is the number of evicted batches not yet installed
	// or restored (a gauge): 1 while a flush cycle completes its batch,
	// else 0.
	PipelineDepth atomic.Int64

	HitLatency  Histogram
	MissLatency Histogram
}

// ObservePhase records one kFlushing phase execution: its duration, the
// budget-relevant bytes it freed and how many of its victims were
// complete. phase is 1-based; out-of-range phases are ignored.
func (r *Registry) ObservePhase(phase int, d time.Duration, freed, completeVictims int64) {
	if phase < 1 || phase > FlushPhases {
		return
	}
	r.PhaseLatency[phase-1].Observe(d)
	r.PhaseFreed[phase-1].Add(freed)
	r.PhaseCompleteVictims[phase-1].Add(completeVictims)
}

// ObserveStage records one flush pipeline stage execution. stage is one
// of the Stage* constants; out-of-range stages are ignored.
func (r *Registry) ObserveStage(stage int, d time.Duration) {
	if stage < 0 || stage >= FlushStages {
		return
	}
	r.StageLatency[stage].Observe(d)
}

// ObserveQueryStage records one query stage execution. stage is one of
// the QStage* constants; out-of-range stages are ignored.
func (r *Registry) ObserveQueryStage(stage int, d time.Duration) {
	if stage < 0 || stage >= QueryStages {
		return
	}
	r.QueryStageLatency[stage].Observe(d)
}

// HitRatio returns the fraction of queries answered entirely from
// memory, in [0,1]; 0 with no queries.
func (r *Registry) HitRatio() float64 {
	q := r.Queries.Load()
	if q == 0 {
		return 0
	}
	return float64(r.Hits.Load()) / float64(q)
}

// RecordQuery tallies one query outcome for the given operator's
// counters.
func (r *Registry) RecordQuery(op string, o Outcome, d time.Duration) {
	r.Queries.Add(1)
	var other [3]atomic.Int64 // an unknown operator's, counted nowhere
	hits, misses, complete := &other[0], &other[1], &other[2]
	switch op {
	case "single":
		hits, misses, complete = &r.SingleHits, &r.SingleMisses, &r.SingleCompleteHits
	case "or":
		hits, misses, complete = &r.OrHits, &r.OrMisses, &r.OrCompleteHits
	case "and":
		hits, misses, complete = &r.AndHits, &r.AndMisses, &r.AndCompleteHits
	}
	switch o {
	case Miss:
		r.Misses.Add(1)
		misses.Add(1)
		r.MissLatency.Observe(d)
	case HitFilled:
		r.Hits.Add(1)
		hits.Add(1)
		r.FilledHits.Add(1)
		r.HitLatency.Observe(d)
	case HitComplete:
		r.Hits.Add(1)
		hits.Add(1)
		r.CompleteHits.Add(1)
		complete.Add(1)
		r.HitLatency.Observe(d)
	}
}

// PhaseSnapshot summarizes one flushing phase's activity.
type PhaseSnapshot struct {
	Runs       int64
	FreedBytes int64
	// CompleteVictims counts the phase's victims that were complete
	// entries (flush phases only).
	CompleteVictims int64 `json:",omitempty"`
	Mean            time.Duration
	P99             time.Duration
	// Hist carries the full phase-latency distribution for the
	// Prometheus exposition; excluded from /stats JSON.
	Hist HistogramSnapshot `json:"-"`
}

// Snapshot is a point-in-time copy of the registry for reporting.
type Snapshot struct {
	Ingested      int64
	IngestBatches int64
	Queries       int64
	Hits          int64
	Misses        int64
	HitRatio      float64
	// FilledHits and CompleteHits split Hits by reason (Outcome), in
	// total and per operator.
	FilledHits         int64
	CompleteHits       int64
	SingleHits         int64
	SingleMisses       int64
	SingleCompleteHits int64
	OrHits             int64
	OrMisses           int64
	OrCompleteHits     int64
	AndHits            int64
	AndMisses          int64
	AndCompleteHits    int64
	Flushes            int64
	FlushedBytes       int64
	// DepartedReads counts departure-record reads by source (names in
	// DepartedSourceNames).
	DepartedReads [DepartedSources]int64
	// DiskSearches counts disk searches, one per memory miss.
	// DiskSearchesCoalesced is always 0: no miss shares another's disk
	// search; it stays for the benchmark harness, which still reads it.
	DiskSearches          int64
	DiskSearchesCoalesced int64
	MeanFlush             time.Duration
	P99Flush              time.Duration
	// Phases breaks flushing down by kFlushing phase (index = phase-1);
	// all-zero under FIFO and LRU, which have no phases.
	Phases [FlushPhases]PhaseSnapshot
	// Stages breaks flushing down by pipeline stage (index = the Stage*
	// constants; names in StageNames).
	Stages [FlushStages]PhaseSnapshot
	// QueryStages attributes query latency by stage (index = the QStage*
	// constants; names in QueryStageNames).
	QueryStages [QueryStages]PhaseSnapshot
	// PipelineDepth is the batches evicted and not yet installed or
	// restored (0 or 1). PipelineFallbacks is always 0: no cycle hands
	// its batch on, so none falls back; it stays for the benchmark
	// harness, which still reads it.
	PipelineDepth     int64
	PipelineFallbacks int64
	MeanHit           time.Duration
	MeanMiss          time.Duration
	P99Hit            time.Duration
	P99Miss           time.Duration

	// Full latency distributions for the Prometheus histogram series
	// (_bucket/_sum/_count); excluded from /stats JSON, where the
	// mean/p99 summaries above remain the human-readable view.
	FlushHist HistogramSnapshot `json:"-"`
	HitHist   HistogramSnapshot `json:"-"`
	MissHist  HistogramSnapshot `json:"-"`
}

// Snap returns a snapshot of all counters.
func (r *Registry) Snap() Snapshot {
	s := Snapshot{
		Ingested:           r.Ingested.Load(),
		IngestBatches:      r.IngestBatches.Load(),
		Queries:            r.Queries.Load(),
		Hits:               r.Hits.Load(),
		Misses:             r.Misses.Load(),
		HitRatio:           r.HitRatio(),
		FilledHits:         r.FilledHits.Load(),
		CompleteHits:       r.CompleteHits.Load(),
		SingleHits:         r.SingleHits.Load(),
		SingleMisses:       r.SingleMisses.Load(),
		SingleCompleteHits: r.SingleCompleteHits.Load(),
		OrHits:             r.OrHits.Load(),
		OrMisses:           r.OrMisses.Load(),
		OrCompleteHits:     r.OrCompleteHits.Load(),
		AndHits:            r.AndHits.Load(),
		AndMisses:          r.AndMisses.Load(),
		AndCompleteHits:    r.AndCompleteHits.Load(),
		Flushes:            r.Flushes.Load(),
		FlushedBytes:       r.FlushedBytes.Load(),
		DiskSearches:       r.DiskSearches.Load(),
		MeanFlush:          r.FlushLatency.Mean(),
		P99Flush:           r.FlushLatency.Quantile(0.99),
		MeanHit:            r.HitLatency.Mean(),
		MeanMiss:           r.MissLatency.Mean(),
		P99Hit:             r.HitLatency.Quantile(0.99),
		P99Miss:            r.MissLatency.Quantile(0.99),
		FlushHist:          r.FlushLatency.Snap(),
		HitHist:            r.HitLatency.Snap(),
		MissHist:           r.MissLatency.Snap(),
	}
	for i := range s.Phases {
		s.Phases[i] = PhaseSnapshot{
			Runs:            r.PhaseLatency[i].Count(),
			FreedBytes:      r.PhaseFreed[i].Load(),
			CompleteVictims: r.PhaseCompleteVictims[i].Load(),
			Mean:            r.PhaseLatency[i].Mean(),
			P99:             r.PhaseLatency[i].Quantile(0.99),
			Hist:            r.PhaseLatency[i].Snap(),
		}
	}
	for i := range s.Stages {
		s.Stages[i] = PhaseSnapshot{
			Runs: r.StageLatency[i].Count(),
			Mean: r.StageLatency[i].Mean(),
			P99:  r.StageLatency[i].Quantile(0.99),
			Hist: r.StageLatency[i].Snap(),
		}
	}
	for i := range s.QueryStages {
		s.QueryStages[i] = PhaseSnapshot{
			Runs: r.QueryStageLatency[i].Count(),
			Mean: r.QueryStageLatency[i].Mean(),
			P99:  r.QueryStageLatency[i].Quantile(0.99),
			Hist: r.QueryStageLatency[i].Snap(),
		}
	}
	for i := range s.DepartedReads {
		s.DepartedReads[i] = r.DepartedReads[i].Load()
	}
	s.PipelineDepth = r.PipelineDepth.Load()
	return s
}
