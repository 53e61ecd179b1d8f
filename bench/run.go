package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"kflushing"
	"kflushing/internal/gen"
	"kflushing/internal/metrics"
)

// Config is one run of one workload.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the length of the measured phase. Rates are fixed, so
	// it fixes the number of operations.
	Seconds float64
	// Scale multiplies the set-up, warm-up and probe sizes; 1 is the
	// benchmarked size. The smoke test runs at 1/40.
	Scale float64
	// Trace selects the traced pass: the second half of the measured
	// phase records spans and samples the store's public trace, and the
	// isolated per-layer probes run afterwards.
	Trace bool
	// OutDir receives <workload>.trace.json and holds the run's data
	// directories, which are removed before Run returns.
	OutDir string
	// Kflushd is the path of the kflushd binary (http_store only).
	Kflushd string
}

const (
	warmupRecords   = 50_000 // throw-away ingest before the set-up timer
	oracleKeys      = 200    // keys compared with the brute-force top-k
	recoverCopies   = 3      // at most this many crash copies are recovered
	recoverEnough   = time.Second
	probeRecords    = 100_000
	probeServerRecs = 20_000
	probeQueries    = 5000
	sampleEvery     = 100 * time.Millisecond
)

// Run executes one workload once and reports what it measured.
func Run(cfg Config) (*Report, error) {
	w, ok := FindWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 || cfg.Scale <= 0 {
		return nil, fmt.Errorf("seconds and scale must be positive")
	}
	if w.http && cfg.Kflushd == "" {
		return nil, fmt.Errorf("workload %s needs the kflushd binary", w.Name)
	}
	// The box has two cores; the harness never asks for more, so a
	// larger machine measures the same configuration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.OutDir, "data-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	r := &run{cfg: cfg, w: w, root: root, rep: newReport(cfg), values: map[string]float64{}}
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r.rep, nil
}

// run is the state of one Run.
type run struct {
	cfg    Config
	w      Workload
	root   string
	rep    *Report
	values map[string]float64
	in     *Inputs
	tgt    target
	tally  tally
	rec    *spanRecorder // nil unless cfg.Trace
	smp    *sampler      // runs from Open to the end of the measured phase

	// Carried between steps.
	searchServiceNs      float64
	setupMallocsPerRec   float64
	harnessMallocsPerRec float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) scaled(n int) int { return max(int(float64(n)*r.cfg.Scale), 1) }

func (r *run) storeDir() string { return filepath.Join(r.root, "store") }

// open starts a store over dir: an in-process System or a kflushd child.
func (r *run) open(dir string) (target, error) {
	if r.w.http {
		return startKflushd(r.cfg.Kflushd, dir, r.in)
	}
	return openInproc(dir, r.w.durable, r.in)
}

func (r *run) execute() error {
	w := r.w
	// Inputs are generated, and request bodies encoded, before any timer
	// starts.
	genCfg := gen.DefaultConfig()
	genCfg.Seed = r.cfg.Seed
	records := max(int(w.ingestRate*r.cfg.Seconds)/w.batch, 1) * w.batch
	r.in = generate(inputPlan{
		cfg:          genCfg,
		setupRecords: r.scaled(w.setupRecords), setupBatch: w.setupBatch,
		records: records, batch: w.batch,
		queries: max(int(w.queryRate*r.cfg.Seconds), 1),
		mix:     w.mix, bodies: w.http,
	})
	r.rep.InputSHA = r.in.SHA

	if r.cfg.Trace {
		r.nullRun()
	}
	if err := r.warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { _ = r.tgt.close() }() // a failed Close of a finished run changes no reported number
	defer r.smp.finish()
	if err := r.measure(); err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	r.verify()
	if r.cfg.Trace {
		if err := r.layerProbes(); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	if err := r.recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if r.rec != nil {
		path := filepath.Join(r.cfg.OutDir, w.Name+".trace.json")
		if err := r.rec.write(path, w.Name, r.cfg.Seed); err != nil {
			return err
		}
		r.rep.info("trace %s spans=%d", path, len(r.rec.spans))
	}
	r.rep.Tally = r.tally
	return r.rep.fill(r.values)
}

// warmup ingests a throw-away prefix into a separate store so that the
// heap, the code paths and the file system are warm before set-up is
// timed. The kflushd child is a fresh process either way, so its
// warm-up only needs to make the binary and the directory tree hot.
func (r *run) warmup() error {
	n := r.scaled(warmupRecords)
	if r.w.http {
		n /= 10
	}
	n = min(n, len(r.in.setup)*r.w.setupBatch)
	dir := filepath.Join(r.root, "warmup")
	t, err := r.open(dir)
	if err != nil {
		return err
	}
	batches := r.in.setup[:max(n/r.w.setupBatch, 1)]
	runPhase(t, r.in, phasePlan{batches: batches, ingestRate: r.w.setupRate * 4}, nil)
	err = t.settle()
	if cerr := t.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// nullRun measures the harness alone: one second of the measured
// phase's schedule with the store calls stubbed out, before any store
// exists, so that what remains is the generator, the pacer and the
// runtime's timers. It also counts what materialising a record
// allocates.
func (r *run) nullRun() {
	w, in := r.w, r.in
	batches := in.measured[:min(len(in.measured), max(int(w.ingestRate)/w.batch, 1))]
	queries := min(in.Queries(), max(int(w.queryRate), 1))
	cpu0 := selfCPU()
	null := runPhase(nil, in, phasePlan{
		batches: batches, ingestRate: w.ingestRate,
		queries: [2]int{0, queries}, queryRate: w.queryRate, null: true,
	}, nil)
	cpu := selfCPU() - cpu0
	r.set("driver.harness_cpu_us_per_op", ratio(float64(cpu)/1e3, float64(null.records+len(null.searches))))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range batches {
		stageNull(in, b)
	}
	runtime.ReadMemStats(&ms1)
	r.harnessMallocsPerRec = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(null.records))
}

// cpu is the CPU time of the process that holds the store.
func (r *run) cpu() time.Duration {
	if !r.w.http {
		return selfCPU()
	}
	d, err := procCPU(r.tgt.pid())
	if err != nil {
		return 0
	}
	return d
}

// setup is what setup_s times: Open, the paced preload, and the wait
// for background work to drain.
func (r *run) setup() error {
	cpu0 := time.Duration(0)
	if !r.w.http {
		cpu0 = selfCPU()
	}
	var ms0, ms1 runtime.MemStats
	if r.cfg.Trace {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	t, err := r.open(r.storeDir())
	if err != nil {
		return err
	}
	r.tgt = t
	r.smp = startSampler(t, r.storeDir(), !r.w.http)
	res := runPhase(t, r.in, phasePlan{batches: r.in.setup, ingestRate: r.w.setupRate}, nil)
	if err := t.settle(); err != nil {
		return err
	}
	r.set("setup_s", time.Since(start).Seconds())
	r.set("driver.setup_cpu_s", (r.cpu() - cpu0).Seconds())
	if r.cfg.Trace {
		runtime.ReadMemStats(&ms1)
		r.setupMallocsPerRec = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(res.records))
	}
	r.count(res)
	return nil
}

// count adds a phase's operations and violations to the tally.
func (r *run) count(res phaseResult) {
	r.tally.attempt(len(res.ingests) + len(res.searches))
	for _, s := range res.ingests {
		if s.viol != "" {
			r.tally.fail(s.viol)
		}
	}
	for _, s := range res.searches {
		if s.viol != "" {
			r.tally.fail(s.viol)
		}
	}
}

// sampler reads cheap gauges and the data directory ten times a second
// while the measured phase runs.
type sampler struct {
	meter *writeMeter
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu          sync.Mutex // guards the peaks
	memPeak     int64
	backlogPeak int
	heapPeak    int64
}

// resetPeaks forgets the peaks seen so far: the meter counts bytes from
// Open on, the gauges describe the measured phase alone.
func (s *sampler) resetPeaks() {
	s.mu.Lock()
	s.memPeak, s.backlogPeak, s.heapPeak = 0, 0, 0
	s.mu.Unlock()
}

func startSampler(t target, dir string, inproc bool) *sampler {
	s := &sampler{meter: newWriteMeter(dir), stop: make(chan struct{})}
	s.meter.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.meter.sample()
			s.mu.Lock()
			if mem, backlog, ok := t.gauges(); ok {
				s.memPeak = max(s.memPeak, mem)
				s.backlogPeak = max(s.backlogPeak, backlog)
			}
			if inproc {
				s.heapPeak = max(s.heapPeak, heapInuseNow())
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// finish stops the sampler and takes a last look at the directory.
func (s *sampler) finish() {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.meter.sample()
	})
}

// measure runs the measured phase and derives every metric that comes
// from it: the end-to-end candidates, the driver's health, and the
// per-layer deltas of the store's own counters.
func (r *run) measure() error {
	w, in := r.w, r.in
	if r.cfg.Trace {
		r.rec = newSpanRecorder()
	}

	r.set("machine.cal_ms_before", float64(calKernel())/1e6)
	c0, err := r.tgt.snapshot()
	if err != nil {
		return err
	}
	smp := r.smp
	smp.resetPeaks()
	cpu0 := r.cpu()

	res := runPhase(r.tgt, in, phasePlan{
		batches: in.measured, firstBatch: len(in.setup), ingestRate: w.ingestRate,
		queries: [2]int{0, in.Queries()}, queryRate: w.queryRate, traced: r.cfg.Trace,
	}, r.rec)

	rss, err := procPeakRSS(r.tgt.pid())
	if err != nil {
		return err
	}
	// Background flushes and compactions the phase caused are part of
	// its cost, so CPU and bytes written are read once they have drained.
	if err := r.tgt.settle(); err != nil {
		return err
	}
	cpu := r.cpu() - cpu0
	smp.finish()
	c1, err := r.tgt.snapshot()
	if err != nil {
		return err
	}
	r.set("machine.cal_ms_after", float64(calKernel())/1e6)
	r.count(res)
	for i, s := range c1.stats {
		r.rep.info("store %d since open: flushes=%d flushed_bytes=%d mem_used=%d compactions=%d segments=%d levels=%v",
			i, s.Metrics.Flushes, s.Metrics.FlushedBytes, s.MemoryUsed, s.Disk.Compactions, s.Disk.Segments, s.Disk.Levels)
	}

	ops := float64(res.records + len(res.searches))
	written := smp.meter.written()
	r.set("rss_peak_mib", float64(rss)/(1<<20))
	r.set("cpu_us_per_op", ratio(float64(cpu)/1e3, ops))
	// Both amplifications are over everything ingested since Open, not
	// the measured phase alone: a ten-second window holds a handful of
	// flush cycles, and whether one more compaction falls inside it
	// would decide the figure.
	payload := in.PayloadBytes()
	r.set("write_amp", Amplification(written.total(), payload))
	r.set("space_amp", Amplification(smp.meter.now.total(), payload))
	r.latencies(res)
	r.layerDeltas(c0, c1, res, smp, written.tier)
	return nil
}

// latencies derives the timing metrics of the measured phase.
func (r *run) latencies(res phaseResult) {
	var ing []int64
	var svcSum int64
	for _, s := range res.ingests {
		ing = append(ing, s.lat)
		svcSum += s.svc
	}
	ing = ascending(ing)
	r.set("ingest_p50_us", usAt(ing, 0.5))
	r.set("ingest_p99_us", usAt(ing, 0.99))
	r.set("driver.ingest_p999_us", usAt(ing, 0.999))
	r.set("engine.ingest_us_per_rec", ratio(float64(svcSum)/1e3, float64(res.records)))
	r.rep.timing("ingest", ing)

	var all, hit, miss, hitPlain, hitSampled []int64
	byOp := map[kflushing.Op][]int64{}
	misses := 0
	for _, s := range res.searches {
		all = append(all, s.lat)
		r.searchServiceNs += float64(s.svc)
		if s.hit {
			hit = append(hit, s.lat)
			if s.sampled {
				hitSampled = append(hitSampled, s.svc)
			} else {
				hitPlain = append(hitPlain, s.svc)
			}
		} else {
			miss = append(miss, s.lat)
			misses++
		}
		if s.kind == kindKeywords {
			byOp[s.op] = append(byOp[s.op], s.lat)
		}
	}
	all, hit, miss = ascending(all), ascending(hit), ascending(miss)
	r.set("query_hit_p50_us", usAt(hit, 0.5))
	r.set("query_miss_p50_us", usAt(miss, 0.5))
	r.set("query_p99_us", usAt(all, 0.99))
	r.set("driver.query_hit_p99_us", usAt(hit, 0.99))
	r.set("driver.query_miss_p99_us", usAt(miss, 0.99))
	r.set("miss_ratio", ratio(float64(misses), float64(len(res.searches))))
	r.rep.timing("query", all)
	r.rep.timing("query_hit", hit)
	r.rep.timing("query_miss", miss)
	for op, name := range map[kflushing.Op]string{kflushing.OpSingle: "single", kflushing.OpAnd: "and", kflushing.OpOr: "or"} {
		r.set("driver.query_"+name+"_p50_us", usAt(ascending(byOp[op]), 0.5))
	}
	// What asking for the execution trace costs a memory hit: the
	// sampled searches against the plain ones of the same phase. (The
	// end-to-end pass runs in another process with tracing off; the
	// difference between the two passes is the whole overhead.)
	plain, sampled := usAt(ascending(hitPlain), 0.5), usAt(ascending(hitSampled), 0.5)
	if plain > 0 && sampled > 0 {
		r.set("driver.trace_overhead_frac", sampled/plain-1)
	} else {
		r.set("driver.trace_overhead_frac", 0)
	}

	r.set("driver.achieved_ingest_rps", ratio(float64(res.records), res.ingWall.Seconds()))
	r.set("driver.achieved_query_qps", ratio(float64(len(res.searches)), res.qryWall.Seconds()))
	r.set("driver.gen_lag_p99_us", usAt(ascending(res.lag), 0.99))
}

// layerDeltas derives per-layer metrics from the store's own counters
// over the measured phase.
func (r *run) layerDeltas(c0, c1 counters, res phaseResult, smp *sampler, tierWritten int64) {
	type st = kflushing.Stats
	d := func(f func(st) int64) float64 { return delta(c0, c1, f) }

	flushes := d(func(s st) int64 { return s.Metrics.Flushes })
	r.set("engine.flush_cycles", flushes)
	for i, name := range metrics.StageNames {
		r.set("engine.flush_stage_"+name+"_ms", meanStageMs(c0, c1, flushStage(i)))
	}
	r.set("engine.pipeline_fallbacks", d(func(s st) int64 { return s.Metrics.PipelineFallbacks }))
	memPeak := smp.memPeak
	for _, c := range []counters{c0, c1} {
		for _, s := range c.stats {
			memPeak = max(memPeak, s.MemoryUsed)
		}
	}
	r.set("engine.mem_used_peak_ratio", float64(memPeak)/memoryBudget)
	var stageSum float64
	for i, name := range metrics.QueryStageNames {
		nanos := d(queryStage(i))
		stageSum += nanos
		if i != metrics.QStageParse {
			runs := d(func(s st) int64 { return s.Metrics.QueryStages[i].Runs })
			r.set("engine.query_stage_"+name+"_us", ratio(nanos, runs)/1e3)
		}
	}
	searched := d(func(s st) int64 { return s.Metrics.DiskSearches })
	coalesced := d(func(s st) int64 { return s.Metrics.DiskSearchesCoalesced })
	r.set("engine.disk_searches_coalesced_ratio", ratio(coalesced, coalesced+searched))
	r.set("budget.query_unaccounted_frac", 1-ratio(stageSum, r.searchServiceNs))

	for i := 0; i < metrics.FlushPhases; i++ {
		r.set(fmt.Sprintf("core.phase%d_ms", i+1), meanStageMs(c0, c1, flushPhase(i)))
	}
	flushed := d(func(s st) int64 { return s.Metrics.FlushedBytes })
	r.set("core.flushed_bytes_per_cycle", ratio(flushed, flushes))

	tierSearches := d(func(s st) int64 { return s.Disk.Searches })
	// Of the directory lookups a search could have made, the share a
	// negative Bloom answer spared.
	skips, dirProbes := d(func(s st) int64 { return s.Disk.BloomSkips }), d(func(s st) int64 { return s.Disk.DirProbes })
	r.set("disk.bloom_skip_ratio", ratio(skips, skips+dirProbes))
	r.set("disk.dir_probes_per_search", ratio(dirProbes, tierSearches))
	r.set("disk.preads_per_search", ratio(d(func(s st) int64 { return s.Disk.RecordReads }), tierSearches))
	cacheHits := d(func(s st) int64 { return s.Disk.CacheHits })
	r.set("disk.cache_hit_ratio", ratio(cacheHits, cacheHits+d(func(s st) int64 { return s.Disk.CacheMisses })))
	r.set("disk.cache_evictions", d(func(s st) int64 { return s.Disk.CacheEvictions }))
	tierFlushes := d(func(s st) int64 { return s.Metrics.Stages[metrics.StageBuild].Runs })
	r.set("disk.build_ms_per_flush", ratio(d(func(s st) int64 { return s.Disk.BuildNanos }), tierFlushes)/1e6)
	r.set("disk.install_ms_per_flush", ratio(d(func(s st) int64 { return s.Disk.InstallNanos }), tierFlushes)/1e6)
	r.set("disk.compactions", d(func(s st) int64 { return s.Disk.Compactions }))
	// Since Open, like write_amp: every tier byte written (flushes and
	// compaction rewrites) per byte the flushes alone wrote.
	r.set("disk.compaction_rewrite_ratio", ratio(float64(tierWritten), float64(c1.sum(func(s st) int64 { return s.Disk.BytesWritten }))))
	backlog := smp.backlogPeak
	for _, s := range c1.stats {
		backlog = max(backlog, s.Disk.CompactionBacklog)
	}
	r.set("disk.compaction_backlog_max", float64(backlog))
	r.set("disk.segments_end", float64(c1.sum(func(s st) int64 { return int64(s.Disk.Segments) })))
	r.set("disk.bytes_on_disk_end", float64(smp.meter.now.tier))
	r.set("wal.bytes_on_disk_end", float64(smp.meter.now.wal))

	// Sampled traces say how many segments a miss really had to open.
	r.set("disk.segments_searched_per_miss", ratio(float64(res.tracedSegments), float64(res.tracedMisses)))

	r.set("runtime.gc_cycles", float64(c1.gcCycles-c0.gcCycles))
	r.set("runtime.gc_pause_ms_total", float64(c1.gcPause-c0.gcPause)/1e6)
	phaseCPU := r.values["cpu_us_per_op"] * float64(res.records+len(res.searches)) * 1e3
	r.set("runtime.gc_cpu_frac", ratio(float64(c1.gcCPU-c0.gcCPU), phaseCPU))
	r.set("runtime.heap_inuse_peak_mib", float64(max(smp.heapPeak, c0.heapInuse, c1.heapInuse))/(1<<20))
	r.set("alloc.pool_reuse_ratio", ratio(float64(c1.poolReuses-c0.poolReuses), float64(c1.poolGets-c0.poolGets)))
}

// verify compares the store at quiescence with a brute-force top-k
// recomputed from the generated stream: memory ∪ disk must hold the true
// top-k of every key (the paper's contract).
func (r *run) verify() {
	ingested := r.in.Records()
	for _, ok := range buildOracle(r.in, ingested, oracleKeys, topK, r.cfg.Seed+17) {
		r.tally.attempt(1)
		got, err := r.tgt.lookup(ok.key, topK)
		switch {
		case err != nil:
			r.tally.fail(violError)
		case !sameIDs(got, ok.want):
			r.tally.fail(violOracle)
		}
	}
}

// recover times crash recovery. With the store idle its directory is
// copied — what kill -9 would leave, since unsynced bytes sit in the
// page cache, not in the process — and a fresh store is opened on the
// copy and asked one question. The median over a few copies is
// reported; the last acked batch must be searchable where the workload
// is durable.
func (r *run) recover() error {
	last := r.in.Records() - 1
	var lastKey string
	r.in.eachKeyword(last, func(kw []byte) bool { lastKey = string(kw); return false })

	var times []float64
	var total time.Duration
	for i := 0; i < recoverCopies && total < recoverEnough; i++ {
		dir := filepath.Join(r.root, fmt.Sprintf("crash-%d", i))
		if err := copyDir(r.storeDir(), dir, true); err != nil {
			return err
		}
		start := time.Now()
		t, err := r.open(dir)
		if err != nil {
			return err
		}
		got, lerr := t.lookup(lastKey, topK)
		d := time.Since(start)
		r.rec.add("driver.recover", start, start.Add(d), nil)
		times = append(times, d.Seconds())
		total += d
		r.tally.attempt(1)
		switch {
		case lerr != nil:
			r.tally.fail(violError)
		case r.w.logs() && (len(got) == 0 || got[0].ID != uint64(last+1)):
			r.tally.fail(violRecover)
		}
		if err := t.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	sort.Float64s(times)
	r.set("recover_s", times[len(times)/2])
	r.rep.info("recover copies=%d", len(times))
	return nil
}

// layerProbes runs what only the traced pass pays for: the forced flush
// on the loaded store and the isolated layer probes.
func (r *run) layerProbes() error {
	w, in := r.w, r.in
	if t, ok := r.tgt.(*inprocTarget); ok {
		start := time.Now()
		if _, err := t.sys.FlushNow(); err != nil {
			return err
		}
		d := time.Since(start)
		r.set("core.flush_now_ms", float64(d)/1e6)
		r.rec.add("driver.flush_now", start, start.Add(d), nil)
		if err := t.settle(); err != nil {
			return err
		}
	} else {
		r.set("core.flush_now_ms", 0) // kflushd offers no flush endpoint
	}

	// How much of the inputs the probes replay; the server probe feeds
	// three engines, twice, so it gets less.
	records := min(r.scaled(probeRecords), in.Records())
	serverRecords := min(r.scaled(probeServerRecs), in.Records())
	queries := keywordQueries(in, r.scaled(probeQueries))
	probeAttr(in, records, r.set)
	postingsPerRec := probeIndexStore(in, records, queries, r.set)
	if err := probeWAL(in, records, 16, filepath.Join(r.root, "probe-wal"), r.set); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	tierDir := r.storeDir()
	if w.http {
		tierDir = filepath.Join(tierDir, "keyword")
	}
	if err := probeDisk(tierDir, filepath.Join(r.root, "probe-disk"), queries, r.set); err != nil {
		return fmt.Errorf("disk probe: %w", err)
	}
	if err := probeServer(in, serverRecords, 32, queries, filepath.Join(r.root, "probe-server"), r.set); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	if t, ok := r.tgt.(*httpTarget); ok {
		// The child's own numbers replace the in-process stand-ins.
		r.set("server.healthz_rtt_us", healthzRTT(t.client, t.base, 200))
	} else {
		// In-process the store's allocations are read directly, over
		// the set-up phase (ingest and flushing only, no searches),
		// less what the harness allocates to materialise a record.
		r.set("alloc.mallocs_per_rec", max(r.setupMallocsPerRec-r.harnessMallocsPerRec, 0))
	}

	// Do the parts add up? Per record: key extraction, log append,
	// raw-store put and one index insert per posting, against what an
	// IngestBatch call took per record. kflushd does all of it once per
	// attribute system, after parsing the request.
	perRec := r.values["attr.keyword_keys_ns_per_rec"] + r.values["store.put_ns"] +
		postingsPerRec*r.values["index.insert_ns_per_posting"]
	if w.logs() {
		perRec += r.values["wal.append_us_per_rec"] * 1e3
	}
	if w.http {
		perRec = 3*perRec + r.values["server.ingest_parse_us_per_rec"]*1e3
	}
	r.set("budget.ingest_unaccounted_frac", 1-ratio(perRec/1e3, r.values["engine.ingest_us_per_rec"]))
	return nil
}
