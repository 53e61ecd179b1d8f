package bench

// Workload is one fixed traffic mix. Sizes are for a 2-core shared box
// and a ten-second measured phase; rates are fixed, so the number of
// operations follows from the run length.
type Workload struct {
	Name string
	Why  string

	durable bool // write-ahead log on (in-process); kflushd is always durable
	http    bool // drive a kflushd child instead of an in-process System

	setupRecords int     // paced preload
	setupRate    float64 // records per second
	setupBatch   int     // records per IngestBatch / POST during set-up

	ingestRate float64 // measured phase, records per second
	batch      int     // records per IngestBatch / POST
	queryRate  float64 // measured phase, searches per second
	mix        string
}

// Workloads are the four benchmarked mixes, in report order.
var Workloads = []Workload{
	{
		Name:         "steady_mix",
		Why:          "paper's operating point: memory full, a flush cycle every ~0.8 s, hits and misses both populated, hits fit in memory; index, core and the engine's memory path carry it",
		setupRecords: 156_000, setupRate: 30_000, setupBatch: 16,
		ingestRate: 6000, batch: 16, queryRate: 1000, mix: mixCorrelated,
	},
	{
		Name: "ingest_heavy", durable: true,
		Why:          "durable ingest at 5x the stream rate with a light query probe: wal, index insert, alloc, flush build/install and compaction; then crash recovery replays the whole log",
		setupRecords: 72_000, setupRate: 30_000, setupBatch: 16,
		ingestRate: 30_000, batch: 16, queryRate: 200, mix: mixCorrelated,
	},
	{
		Name:         "cold_miss",
		Why:          "uniform keys over ~9x more segment bytes than the record cache, so 99.7% of searches go to disk: Bloom filter, directory, cache, pread; ingest is light",
		setupRecords: 228_000, setupRate: 35_000, setupBatch: 16,
		ingestRate: 2000, batch: 16, queryRate: 1000, mix: mixUniform,
	},
	{
		Name: "http_store", http: true,
		Why:          "kflushd child over 2 keep-alive connections: the only workload where server JSON parse/encode, the x3 attribute fan-out and the spatial and user engines run",
		setupRecords: 48_000, setupRate: 8000, setupBatch: 256,
		ingestRate: 3200, batch: 32, queryRate: 400, mix: mixHTTP,
	},
}

// logs reports whether the store keeps a write-ahead log: kflushd is
// always started durable.
func (w Workload) logs() bool { return w.durable || w.http }

// FindWorkload returns the workload called name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// MetricDef names one reported metric. Lower is better for every
// end-to-end metric; per-layer metrics carry their direction for the
// reader (BENCHMARK.json) and are never gated.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which a gated
	// end-to-end metric may worsen (candidates only).
	Bound float64
}

// Candidates are the twelve end-to-end quantities every run measures.
// Those that repeat on every workload (bench/AA.md) are listed as
// end_to_end in BENCHMARK.json; the rest are demoted: printed in the
// per-layer section as driver.<name> and not gated.
var Candidates = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "ingest_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "query_hit_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "query_miss_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "miss_ratio", Unit: "ratio", Better: "lower", Bound: 0.08},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "write_amp", Unit: "ratio", Better: "lower", Bound: 0.10},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "rss_peak_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10},
}

// Gated names the candidates that BENCHMARK.json lists as end_to_end.
// The set comes from the A/A table (AA.md), not from a guess: a
// candidate is gated only if, on all four workloads, both its spreads
// and the difference of its same-code medians stay under half its
// bound (a third is the target). rss_peak_mib misses that by little —
// the kflushd child's peak spread 15 % in one set of ten — and is
// demoted like the time-valued candidates.
var Gated = map[string]bool{
	"setup_s":    true,
	"miss_ratio": true,
	"write_amp":  true,
	"space_amp":  true,
}

// EndToEnd returns the gated candidates in report order.
func EndToEnd() []MetricDef {
	var out []MetricDef
	for _, m := range Candidates {
		if Gated[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// layerDefs are the per-layer metrics of a traced run, by module.
var layerDefs = []MetricDef{
	{Name: "driver.achieved_ingest_rps", Unit: "1/s", Better: "higher"},
	{Name: "driver.achieved_query_qps", Unit: "1/s", Better: "higher"},
	{Name: "driver.gen_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.harness_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "driver.setup_cpu_s", Unit: "s", Better: "lower"},
	{Name: "driver.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.query_single_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.query_and_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.query_or_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.query_hit_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.query_miss_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.ingest_p999_us", Unit: "us", Better: "lower"},
	{Name: "machine.cal_ms_before", Unit: "ms", Better: "lower"},
	{Name: "machine.cal_ms_after", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_parse_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "server.search_encode_us", Unit: "us", Better: "lower"},
	{Name: "server.query_stage_parse_us", Unit: "us", Better: "lower"},
	{Name: "server.healthz_rtt_us", Unit: "us", Better: "lower"},
	{Name: "attr.keyword_keys_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "spatial.cell_keys_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "engine.flush_cycles", Unit: "count", Better: "lower"},
	{Name: "engine.flush_stage_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.flush_stage_build_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.flush_stage_install_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.flush_stage_release_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.pipeline_fallbacks", Unit: "count", Better: "lower"},
	{Name: "engine.mem_used_peak_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.query_stage_index_us", Unit: "us", Better: "lower"},
	{Name: "engine.query_stage_heap_us", Unit: "us", Better: "lower"},
	{Name: "engine.query_stage_disk_us", Unit: "us", Better: "lower"},
	{Name: "engine.disk_searches_coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.ingest_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "core.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.flushed_bytes_per_cycle", Unit: "B", Better: "higher"},
	{Name: "core.flush_now_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_on_disk_end", Unit: "B", Better: "lower"},
	{Name: "index.insert_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.topk_ns", Unit: "ns", Better: "lower"},
	{Name: "store.put_ns", Unit: "ns", Better: "lower"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.mallocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "alloc.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "disk.bloom_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "disk.dir_probes_per_search", Unit: "count", Better: "lower"},
	{Name: "disk.preads_per_search", Unit: "count", Better: "lower"},
	{Name: "disk.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "disk.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "disk.segments_searched_per_miss", Unit: "count", Better: "lower"},
	{Name: "disk.search_cold_us", Unit: "us", Better: "lower"},
	{Name: "disk.search_warm_us", Unit: "us", Better: "lower"},
	{Name: "disk.build_ms_per_flush", Unit: "ms", Better: "lower"},
	{Name: "disk.install_ms_per_flush", Unit: "ms", Better: "lower"},
	{Name: "disk.compactions", Unit: "count", Better: "lower"},
	{Name: "disk.compaction_rewrite_ratio", Unit: "ratio", Better: "lower"},
	{Name: "disk.compaction_backlog_max", Unit: "count", Better: "lower"},
	{Name: "disk.segments_end", Unit: "count", Better: "lower"},
	{Name: "disk.bytes_on_disk_end", Unit: "B", Better: "lower"},
	{Name: "disk.open_ms", Unit: "ms", Better: "lower"},
	{Name: "disk.compact_all_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "budget.ingest_unaccounted_frac", Unit: "ratio", Better: "lower"},
	{Name: "budget.query_unaccounted_frac", Unit: "ratio", Better: "lower"},
}

// PerLayer returns every metric a traced run reports: the layer
// metrics plus the demoted candidates under the driver module.
func PerLayer() []MetricDef {
	out := append([]MetricDef(nil), layerDefs...)
	for _, m := range Candidates {
		if !Gated[m.Name] {
			out = append(out, MetricDef{Name: "driver." + m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	return out
}
