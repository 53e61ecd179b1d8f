package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"kflushing"
	"kflushing/internal/blackbox"
	"kflushing/internal/metrics"
)

// HandlerOptions tunes the HTTP API surface.
type HandlerOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and must be
	// opted into (kflushd's -pprof flag).
	EnablePprof bool
}

// Handler returns the HTTP API over the store with default options:
//
//	POST /microblogs            one JSON object or a stream of objects
//	GET  /search/keywords?q=a,b&op=single|and|or&k=20[&trace=1]
//	GET  /search/nearby?lat=40.7&lon=-74.0&k=20[&radius=5][&trace=1]
//	GET  /search/user?id=42&k=20[&trace=1]
//	GET  /stats                 per-attribute gauges and counters
//	GET  /metrics               Prometheus text exposition
//	GET  /debug/blackbox        flight-recorder merged timeline: every
//	                            event, flush cycles and slow queries
//	                            included (kflushctl folds the former
//	                            into one line per cycle)
//	                            [?attr=keyword|spatial|user]
//	                            [&subsystem=ingest|wal|flush|...]
//	                            [&id=<cycle or query ID>][&n=256]
//	GET  /healthz               liveness probe
//	GET  /readyz                readiness probe (disk + WAL writable,
//	                            plus per-level disk health and the
//	                            flush batches in flight)
//
// trace=1 attaches a per-query execution trace to the JSON response:
// the memory probe per key and, on a miss, every disk segment consulted
// with Bloom/cache outcomes and stage timings.
func (s *Store) Handler() http.Handler {
	return s.HandlerWithOptions(HandlerOptions{})
}

// HandlerWithOptions returns the HTTP API with explicit options.
func (s *Store) HandlerWithOptions(o HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/microblogs", s.handleIngest)
	mux.HandleFunc("/search/keywords", s.handleSearchKeywords)
	mux.HandleFunc("/search/nearby", s.handleSearchNearby)
	mux.HandleFunc("/search/user", s.handleSearchUser)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/blackbox", s.handleBlackbox)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	if o.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// ingestReq is the JSON shape of one incoming microblog.
type ingestReq struct {
	Keywords  []string `json:"keywords"`
	Text      string   `json:"text"`
	UserID    uint64   `json:"user_id"`
	Followers uint32   `json:"followers"`
	Lat       *float64 `json:"lat"`
	Lon       *float64 `json:"lon"`
}

func (r ingestReq) toMicroblog() *kflushing.Microblog {
	mb := &kflushing.Microblog{
		Keywords:  r.Keywords,
		Text:      r.Text,
		UserID:    r.UserID,
		Followers: r.Followers,
	}
	if r.Lat != nil && r.Lon != nil {
		mb.Lat, mb.Lon, mb.HasGeo = *r.Lat, *r.Lon, true
	}
	return mb
}

// itemResp is the JSON shape of one ranked answer.
type itemResp struct {
	ID        uint64   `json:"id"`
	Timestamp int64    `json:"timestamp"`
	UserID    uint64   `json:"user_id"`
	Keywords  []string `json:"keywords,omitempty"`
	Text      string   `json:"text"`
	Lat       float64  `json:"lat,omitempty"`
	Lon       float64  `json:"lon,omitempty"`
	Score     float64  `json:"score"`
}

func toItems(res kflushing.Result) []itemResp {
	items := make([]itemResp, len(res.Items))
	for i, it := range res.Items {
		items[i] = itemResp{
			ID:        uint64(it.MB.ID),
			Timestamp: int64(it.MB.Timestamp),
			UserID:    it.MB.UserID,
			Keywords:  it.MB.Keywords,
			Text:      it.MB.Text,
			Score:     it.Score,
		}
		if it.MB.HasGeo {
			items[i].Lat, items[i].Lon = it.MB.Lat, it.MB.Lon
		}
	}
	return items
}

func (s *Store) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Decode the whole request before ingesting anything, so one POST —
	// whether a single object or a stream — becomes one batch per
	// attribute system (one WAL group commit each when durability is on).
	dec := json.NewDecoder(r.Body)
	var mbs []*kflushing.Microblog
	for {
		var req ingestReq
		if err := dec.Decode(&req); err != nil {
			if len(mbs) == 0 {
				http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
				return
			}
			break
		}
		mbs = append(mbs, req.toMicroblog())
		if !dec.More() {
			break
		}
	}
	results, err := s.IngestBatch(mbs)
	if err != nil {
		// Either body carries err's text, which says whether attributes
		// before the failing one already ingested the batch (see
		// Store.IngestBatch: a failed POST is not all-or-nothing).
		// Degraded read-only mode is an operational condition, not a bad
		// request: answer 503 so clients and load balancers back off and
		// retry elsewhere, with the cause in a JSON body.
		if errors.Is(err, kflushing.ErrDegraded) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			if eerr := json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "degraded": true}); eerr != nil {
				slog.Error("server: encode degraded ingest response", "err", eerr)
			}
			return
		}
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, map[string]any{"ingested": results})
}

// parseK validates the k query parameter; 0 means "system default".
func parseK(r *http.Request) (int, error) {
	ks := r.URL.Query().Get("k")
	if ks == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(ks)
	if err != nil || v < 1 || v > 10_000 {
		return 0, fmt.Errorf("k must be an integer in [1,10000]")
	}
	return v, nil
}

// finishSearch is the shared tail of the three search handlers, entered
// once the attribute's own parameters are parsed: validate k, book the
// parse stage to the attribute's registry, run the plain or (?trace=1)
// the traced search, and write the answer with its trace when present.
func finishSearch(w http.ResponseWriter, r *http.Request, reg *metrics.Registry, parseStart time.Time,
	plain func(k int) (kflushing.Result, error),
	traced func(k int) (kflushing.Result, *kflushing.Trace, error),
) {
	k, err := parseK(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reg.ObserveQueryStage(metrics.QStageParse, time.Since(parseStart))
	var res kflushing.Result
	var tr *kflushing.Trace
	if r.URL.Query().Get("trace") == "1" {
		res, tr, err = traced(k)
	} else {
		res, err = plain(k)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body := map[string]any{"items": toItems(res), "memory_hit": res.MemoryHit}
	if tr != nil {
		body["trace"] = tr
	}
	writeJSON(w, body)
}

func (s *Store) handleSearchKeywords(w http.ResponseWriter, r *http.Request) {
	parseStart := time.Now()
	q := r.URL.Query()
	var keywords []string
	for _, kw := range strings.Split(q.Get("q"), ",") {
		if kw = strings.TrimSpace(kw); kw != "" {
			keywords = append(keywords, kw)
		}
	}
	if len(keywords) == 0 {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	op := kflushing.OpSingle
	switch q.Get("op") {
	case "", "single":
	case "and":
		op = kflushing.OpAnd
	case "or":
		op = kflushing.OpOr
	default:
		http.Error(w, "op must be single|and|or", http.StatusBadRequest)
		return
	}
	finishSearch(w, r, s.kw.Engine().Metrics(), parseStart,
		func(k int) (kflushing.Result, error) { return s.SearchKeywords(keywords, op, k) },
		func(k int) (kflushing.Result, *kflushing.Trace, error) {
			return s.SearchKeywordsTraced(keywords, op, k)
		})
}

func (s *Store) handleSearchNearby(w http.ResponseWriter, r *http.Request) {
	parseStart := time.Now()
	q := r.URL.Query()
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lon, errLon := strconv.ParseFloat(q.Get("lon"), 64)
	if errLat != nil || errLon != nil {
		http.Error(w, "lat and lon are required numbers", http.StatusBadRequest)
		return
	}
	radius := 0.0
	if rs := q.Get("radius"); rs != "" {
		v, err := strconv.ParseFloat(rs, 64)
		if err != nil || v < 0 || v > 500 {
			http.Error(w, "radius must be a number of miles in [0,500]", http.StatusBadRequest)
			return
		}
		radius = v
	}
	finishSearch(w, r, s.sp.Engine().Metrics(), parseStart,
		func(k int) (kflushing.Result, error) { return s.SearchNearby(lat, lon, radius, k) },
		func(k int) (kflushing.Result, *kflushing.Trace, error) {
			return s.SearchNearbyTraced(lat, lon, radius, k)
		})
}

func (s *Store) handleSearchUser(w http.ResponseWriter, r *http.Request) {
	parseStart := time.Now()
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "id must be a positive integer", http.StatusBadRequest)
		return
	}
	finishSearch(w, r, s.us.Engine().Metrics(), parseStart,
		func(k int) (kflushing.Result, error) { return s.SearchUser(id, k) },
		func(k int) (kflushing.Result, *kflushing.Trace, error) { return s.SearchUserTraced(id, k) })
}

func (s *Store) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// parseN validates the n query parameter (def when absent), answering
// 400 and returning false when it is malformed.
func parseN(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	ns := r.URL.Query().Get("n")
	if ns == "" {
		return def, true
	}
	v, err := strconv.Atoi(ns)
	if err != nil || v < 1 || v > 100_000 {
		http.Error(w, "n must be an integer in [1,100000]", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// onlyAttr narrows a per-attribute map to the attribute ?attr= names,
// or returns it whole when the parameter is absent. An attribute the
// Store's table does not hold answers 400 and returns false.
func onlyAttr[V any](w http.ResponseWriter, r *http.Request, byAttr map[string]V) (map[string]V, bool) {
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		return byAttr, true
	}
	v, ok := byAttr[attr]
	if !ok {
		http.Error(w, "attr must be keyword|spatial|user", http.StatusBadRequest)
		return nil, false
	}
	return map[string]V{attr: v}, true
}

// handleBlackbox serves the flight recorder's merged timeline: every
// attribute system's per-subsystem event rings interleaved in global
// sequence order, so one flush cycle's WAL, flush-stage, and disk
// events read as a single causal story. ?attr restricts to one attribute
// system; ?subsystem filters by subsystem name (see blackbox.Subsystems);
// ?id keeps the events of one flush cycle or slow query, whichever
// subsystem recorded them; ?n bounds the response to the most recent n
// events (default 256). The filters compose.
func (s *Store) handleBlackbox(w http.ResponseWriter, r *http.Request) {
	n, ok := parseN(w, r, 256)
	if !ok {
		return
	}
	q := r.URL.Query()
	sub := q.Get("subsystem")
	if _, ok := blackbox.ParseSubsystem(sub); sub != "" && !ok {
		http.Error(w, "subsystem must be one of "+strings.Join(blackbox.Subsystems(), "|"),
			http.StatusBadRequest)
		return
	}
	var id uint64
	if ids := q.Get("id"); ids != "" {
		var err error
		if id, err = strconv.ParseUint(ids, 10, 64); err != nil || id == 0 {
			http.Error(w, "id must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	byAttr, ok := onlyAttr(w, r, s.BlackboxEvents())
	if !ok {
		return
	}
	if sub != "" || id != 0 {
		for a, evs := range byAttr {
			kept := evs[:0]
			for _, ev := range evs {
				if (sub == "" || ev.Subsystem == sub) && (id == 0 || ev.ID == id) {
					kept = append(kept, ev)
				}
			}
			byAttr[a] = kept
		}
	}
	timeline := blackbox.MergeTimeline(byAttr)
	if len(timeline) > n {
		timeline = timeline[len(timeline)-n:]
	}
	writeJSON(w, map[string]any{
		"epoch_unix_nanos": blackbox.EpochUnixNanos(),
		"events":           timeline,
	})
}

// handleReady is the readiness probe: it verifies every attribute
// system can actually write (disk tier dir writable, WAL appendable
// when durable) and answers 503 with the failing attributes otherwise.
// Both verdicts carry each attribute's disk health — per-level segment
// counts, compaction backlog, and flush batches in flight — so compaction
// falling behind or a flush stuck on the disk shows up in the probe body.
func (s *Store) handleReady(w http.ResponseWriter, _ *http.Request) {
	failures := s.Ready()
	disk := s.DiskHealth()
	if len(failures) == 0 {
		writeJSON(w, map[string]any{"ready": true, "disk": disk})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	body := map[string]any{"ready": false, "reasons": failures, "disk": disk}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		slog.Error("server: encode readiness response", "err", err)
	}
}

// handleMetrics writes the Prometheus text exposition format: one HELP
// and TYPE line per metric name, gauges and counters per attribute, and
// real cumulative histograms (_bucket/_sum/_count) for the latency
// distributions.
func (s *Store) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	stats := s.Stats()
	attrs := make([]string, 0, len(stats))
	for a := range stats {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	emit := func(name, typ, help string, value func(kflushing.Stats) float64) {
		fmt.Fprintf(w, "# HELP kflushing_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kflushing_%s %s\n", name, typ)
		for _, a := range attrs {
			fmt.Fprintf(w, "kflushing_%s{attr=%q,policy=%q} %g\n",
				name, a, stats[a].Policy, value(stats[a]))
		}
	}
	emit("memory_used_bytes", "gauge", "budget-relevant memory in use",
		func(st kflushing.Stats) float64 { return float64(st.MemoryUsed) })
	emit("memory_budget_bytes", "gauge", "configured memory budget",
		func(st kflushing.Stats) float64 { return float64(st.MemoryBudget) })
	emit("policy_overhead_bytes", "gauge", "flushing-policy bookkeeping memory",
		func(st kflushing.Stats) float64 { return float64(st.PolicyOverhead) })
	emit("records", "gauge", "records in the raw data store",
		func(st kflushing.Stats) float64 { return float64(st.StoreRecords) })
	emit("index_entries", "gauge", "live index entries",
		func(st kflushing.Stats) float64 { return float64(st.Census.Entries) })
	emit("kfilled_entries", "gauge", "entries able to serve top-k from memory",
		func(st kflushing.Stats) float64 { return float64(st.Census.KFilled) })
	emit("ingested_total", "counter", "records digested",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.Ingested) })
	emit("queries_total", "counter", "queries evaluated",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.Queries) })
	// One series per hit reason: filled (every key held k postings above
	// all it lost, the paper's hit) or complete (any other exact hit).
	fmt.Fprintf(w, "# HELP kflushing_query_hits_total queries answered exactly from memory, by reason\n")
	fmt.Fprintf(w, "# TYPE kflushing_query_hits_total counter\n")
	for _, a := range attrs {
		st := stats[a]
		fmt.Fprintf(w, "kflushing_query_hits_total{attr=%q,policy=%q,reason=%q} %d\n", a, st.Policy, metrics.HitFilled.Reason(), st.Metrics.FilledHits)
		fmt.Fprintf(w, "kflushing_query_hits_total{attr=%q,policy=%q,reason=%q} %d\n", a, st.Policy, metrics.HitComplete.Reason(), st.Metrics.CompleteHits)
	}
	// One series per source of a search's departure-record read for a
	// key without an entry: none (never departed), ghost (the key's own
	// ceiling) or floor (a ceiling shared by the keys folded into it).
	fmt.Fprintf(w, "# HELP kflushing_departed_reads_total departure-record reads for keys without an index entry, by what served the ceiling\n")
	fmt.Fprintf(w, "# TYPE kflushing_departed_reads_total counter\n")
	for _, a := range attrs {
		st := stats[a]
		for src, name := range metrics.DepartedSourceNames {
			fmt.Fprintf(w, "kflushing_departed_reads_total{attr=%q,policy=%q,source=%q} %d\n", a, st.Policy, name, st.Metrics.DepartedReads[src])
		}
	}
	emit("departed_ghost_load", "gauge", "fraction of the departure record's ghost slots holding a departed key's ceiling",
		func(st kflushing.Stats) float64 { return st.DepartedGhostLoad })
	emit("flushes_total", "counter", "flush cycles executed",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.Flushes) })
	emit("ingest_batches_total", "counter", "batched ingestion calls (per-record ingest is a batch of one)",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.IngestBatches) })
	emit("disk_segments", "gauge", "live disk segments",
		func(st kflushing.Stats) float64 { return float64(st.Disk.Segments) })
	emit("disk_blocks", "gauge", "record block files the live disk segments name (written once by a flush, never merged)",
		func(st kflushing.Stats) float64 { return float64(st.Disk.Blocks) })
	emit("disk_shadowed_record_bytes", "gauge", "bytes of records in live blocks that a newer block also holds (dead copies compaction does not rewrite away)",
		func(st kflushing.Stats) float64 { return float64(st.Disk.ShadowedRecordBytes) })
	emit("disk_compactions_total", "counter", "segment merges completed",
		func(st kflushing.Stats) float64 { return float64(st.Disk.Compactions) })
	emit("disk_compaction_failures_total", "counter", "compaction passes that failed (each retried by the pass after the next flush cycle)",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CompactionFailures) })
	emit("compaction_backlog", "gauge", "tier levels over their fanout awaiting compaction (persistently positive = compaction failing or falling behind)",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CompactionBacklog) })
	emit("disk_retired_segments", "gauge", "compaction inputs superseded by a merged segment but not yet unlinked",
		func(st kflushing.Stats) float64 { return float64(st.Disk.PendingRetired) })
	emit("flush_pipeline_depth", "gauge", "evicted batches not yet installed or restored (0 or 1: the batch of the flush cycle in progress)",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.PipelineDepth) })
	emit("disk_record_reads_total", "counter", "record preads served by the disk tier",
		func(st kflushing.Stats) float64 { return float64(st.Disk.RecordReads) })
	emit("disk_searches_total", "counter", "disk searches executed, one per memory miss",
		func(st kflushing.Stats) float64 { return float64(st.Metrics.DiskSearches) })
	emit("disk_bloom_probes_total", "counter", "per-segment Bloom filter consultations",
		func(st kflushing.Stats) float64 { return float64(st.Disk.BloomProbes) })
	emit("disk_bloom_skips_total", "counter", "segment directory probes skipped by Bloom filters",
		func(st kflushing.Stats) float64 { return float64(st.Disk.BloomSkips) })
	emit("disk_dir_probes_total", "counter", "segment directory probes performed",
		func(st kflushing.Stats) float64 { return float64(st.Disk.DirProbes) })
	emit("disk_cache_hits_total", "counter", "record reads served by the disk read cache",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CacheHits) })
	emit("disk_cache_misses_total", "counter", "record cache lookups that fell through to a pread",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CacheMisses) })
	emit("disk_cache_evictions_total", "counter", "record cache entries evicted by the byte budget",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CacheEvictions) })
	emit("disk_cache_bytes", "gauge", "bytes resident in the disk read cache",
		func(st kflushing.Stats) float64 { return float64(st.Disk.CacheBytes) })
	emit("degraded", "gauge", "1 while the attribute system is in degraded read-only mode (tier writes failing)",
		func(st kflushing.Stats) float64 {
			if st.Degraded {
				return 1
			}
			return 0
		})

	// The write-ahead log is the store's, not an attribute's: one series
	// each, from the attribute that carries it (Stats.WALOwner).
	var wal kflushing.Stats
	for _, a := range attrs {
		if stats[a].WALOwner {
			wal = stats[a]
		}
	}
	emitStore := func(name, typ, help string, value float64) {
		fmt.Fprintf(w, "# HELP kflushing_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kflushing_%s %s\n", name, typ)
		fmt.Fprintf(w, "kflushing_%s %g\n", name, value)
	}
	emitStore("wal_bytes", "gauge", "bytes a recovery reads: the log files still replayed and the frames their reference frames list (0 without durability)",
		float64(wal.WAL.Bytes))
	emitStore("wal_files", "gauge", "write-ahead log files still replayed, the active file included",
		float64(wal.WAL.Files))
	emitStore("wal_live_records", "gauge", "claims of records whose replay still goes through the log, one per attribute indexing the record: in memory, or in flight to a segment",
		float64(wal.WAL.LiveRecords))
	emitStore("wal_referenced_records_total", "counter", "survivors of a sealed log file listed by a reference frame so the file could drain",
		float64(wal.WAL.ReferencedRecords))
	emitStore("wal_reclaimed_bytes_total", "counter", "bytes of write-ahead log files drained: no longer replayed",
		float64(wal.WAL.ReclaimedBytes))

	// Per-level occupancy of the disk tier, one series per populated
	// level.
	emitLevel := func(name, help string, value func(kflushing.LevelStats) float64) {
		fmt.Fprintf(w, "# HELP kflushing_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kflushing_%s gauge\n", name)
		for _, a := range attrs {
			for _, lv := range stats[a].Disk.Levels {
				fmt.Fprintf(w, "kflushing_%s{attr=%q,policy=%q,level=\"%d\"} %g\n",
					name, a, stats[a].Policy, lv.Level, value(lv))
			}
		}
	}
	emitLevel("disk_level_segments", "live segments per tier level",
		func(lv kflushing.LevelStats) float64 { return float64(lv.Segments) })
	emitLevel("disk_level_bytes", "bytes per tier level",
		func(lv kflushing.LevelStats) float64 { return float64(lv.Bytes) })
	emitLevel("disk_level_records", "records per tier level",
		func(lv kflushing.LevelStats) float64 { return float64(lv.Records) })

	// Latency distributions as real cumulative histograms. The engine's
	// power-of-two buckets become `le` edges of 2^(i+1) ns in seconds.
	emitHist := func(name, help string, snap func(kflushing.Stats) metrics.HistogramSnapshot) {
		fmt.Fprintf(w, "# HELP kflushing_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kflushing_%s histogram\n", name)
		for _, a := range attrs {
			writeHistSeries(w, name, fmt.Sprintf("attr=%q,policy=%q", a, stats[a].Policy), snap(stats[a]))
		}
	}
	emitHist("flush_duration_seconds", "flush-cycle duration",
		func(st kflushing.Stats) metrics.HistogramSnapshot { return st.Metrics.FlushHist })
	emitHist("query_hit_duration_seconds", "latency of queries answered from memory",
		func(st kflushing.Stats) metrics.HistogramSnapshot { return st.Metrics.HitHist })
	emitHist("query_miss_duration_seconds", "latency of queries that fell back to disk",
		func(st kflushing.Stats) metrics.HistogramSnapshot { return st.Metrics.MissHist })

	// Per-phase breakdown of kFlushing flushes (all-zero for FIFO/LRU).
	emitPhase := func(name, typ, help string, value func(kflushing.Stats, int) float64) {
		fmt.Fprintf(w, "# HELP kflushing_%s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE kflushing_%s %s\n", name, typ)
		for _, a := range attrs {
			for p := 0; p < len(stats[a].Metrics.Phases); p++ {
				fmt.Fprintf(w, "kflushing_%s{attr=%q,policy=%q,phase=\"%d\"} %g\n",
					name, a, stats[a].Policy, p+1, value(stats[a], p))
			}
		}
	}
	emitPhase("flush_phase_runs_total", "counter", "executions of each kFlushing phase",
		func(st kflushing.Stats, p int) float64 { return float64(st.Metrics.Phases[p].Runs) })
	emitPhase("flush_phase_freed_bytes_total", "counter", "budget-relevant bytes freed by each kFlushing phase",
		func(st kflushing.Stats, p int) float64 { return float64(st.Metrics.Phases[p].FreedBytes) })
	emitPhase("flush_phase_complete_victims_total", "counter", "victims of each kFlushing phase that were complete entries, answering every query from memory",
		func(st kflushing.Stats, p int) float64 { return float64(st.Metrics.Phases[p].CompleteVictims) })
	fmt.Fprintf(w, "# HELP kflushing_flush_phase_duration_seconds duration of each kFlushing phase\n")
	fmt.Fprintf(w, "# TYPE kflushing_flush_phase_duration_seconds histogram\n")
	for _, a := range attrs {
		for p := 0; p < len(stats[a].Metrics.Phases); p++ {
			labels := fmt.Sprintf("attr=%q,policy=%q,phase=\"%d\"", a, stats[a].Policy, p+1)
			writeHistSeries(w, "flush_phase_duration_seconds", labels, stats[a].Metrics.Phases[p].Hist)
		}
	}

	// Per-stage breakdown of a flush cycle (prepare, build, install,
	// release, all under the flush gate).
	fmt.Fprintf(w, "# HELP kflushing_flush_stage_duration_seconds duration of each flush stage\n")
	fmt.Fprintf(w, "# TYPE kflushing_flush_stage_duration_seconds histogram\n")
	for _, a := range attrs {
		for i, stage := range metrics.StageNames {
			labels := fmt.Sprintf("attr=%q,policy=%q,stage=%q", a, stats[a].Policy, stage)
			writeHistSeries(w, "flush_stage_duration_seconds", labels, stats[a].Metrics.Stages[i].Hist)
		}
	}

	// Per-stage attribution of query latency (parse in the HTTP handler,
	// index/heap/disk in the engine) — where a slow query spent its time,
	// without requiring trace=1.
	fmt.Fprintf(w, "# HELP kflushing_query_stage_duration_seconds duration of each query stage\n")
	fmt.Fprintf(w, "# TYPE kflushing_query_stage_duration_seconds histogram\n")
	for _, a := range attrs {
		for i, stage := range metrics.QueryStageNames {
			labels := fmt.Sprintf("attr=%q,policy=%q,stage=%q", a, stats[a].Policy, stage)
			writeHistSeries(w, "query_stage_duration_seconds", labels, stats[a].Metrics.QueryStages[i].Hist)
		}
	}

	// Process-wide runtime health, once (no attr label).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP kflushing_goroutines live goroutines in the server process\n")
	fmt.Fprintf(w, "# TYPE kflushing_goroutines gauge\n")
	fmt.Fprintf(w, "kflushing_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP kflushing_heap_alloc_bytes heap bytes allocated and still in use\n")
	fmt.Fprintf(w, "# TYPE kflushing_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "kflushing_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP kflushing_gc_cycles_total completed garbage-collection cycles\n")
	fmt.Fprintf(w, "# TYPE kflushing_gc_cycles_total counter\n")
	fmt.Fprintf(w, "kflushing_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP kflushing_gc_pause_seconds_total cumulative stop-the-world pause time\n")
	fmt.Fprintf(w, "# TYPE kflushing_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "kflushing_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}

// writeHistSeries emits one labeled histogram as cumulative _bucket
// lines (le edges ascending, closed by +Inf), then _sum and _count.
func writeHistSeries(w http.ResponseWriter, name, labels string, h metrics.HistogramSnapshot) {
	var cum int64
	for i := 0; i < metrics.HistBuckets; i++ {
		cum += h.Counts[i]
		le := strconv.FormatFloat(float64(metrics.BucketUpperNanos(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "kflushing_%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(w, "kflushing_%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	fmt.Fprintf(w, "kflushing_%s_sum{%s} %g\n", name, labels, float64(h.Sum)/1e9)
	fmt.Fprintf(w, "kflushing_%s_count{%s} %d\n", name, labels, h.Count)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("server: encode response", "err", err)
	}
}
