package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"kflushing"
)

// memoryBudget is the benchmarked budget: small enough that every
// workload flushes continuously.
const memoryBudget = 16 << 20

// topK is the result limit of every search (the paper's default).
const topK = 20

// storeOptions is the benchmarked configuration: the zero value plus
// the budget, the wall clock a server uses, and durability where the
// workload asks for it.
func storeOptions(durable bool) kflushing.Options {
	return kflushing.Options{MemoryBudget: memoryBudget, Clock: kflushing.WallClock(), Durable: durable}
}

// inprocTarget drives a kflushing.System in the harness's own process.
type inprocTarget struct {
	sys    *kflushing.System
	in     *Inputs
	chk    *checker
	staged []*kflushing.Microblog
	ans    []Answer
}

func openInproc(dir string, durable bool, in *Inputs) (target, error) {
	sys, err := kflushing.Open(dir, storeOptions(durable))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	return &inprocTarget{sys: sys, in: in, chk: newChecker(in)}, nil
}

func (t *inprocTarget) spanNames() (string, string) { return "driver.ingest_batch", "driver.search" }

func (t *inprocTarget) pid() int { return os.Getpid() }

func (t *inprocTarget) stage(b batchRef) {
	t.staged = t.staged[:0]
	for i := b.first; i < b.first+b.n; i++ {
		t.staged = append(t.staged, t.in.Record(i))
	}
}

func (t *inprocTarget) ingest(_ int, b batchRef) (time.Time, ingestSample) {
	ids, err := t.sys.IngestBatch(t.staged)
	end := time.Now()
	var s ingestSample
	switch {
	case err != nil:
		s.viol = violError
	case !sequentialIDs(ids, b):
		s.viol = violBadID
	}
	return end, s
}

// sequentialIDs reports whether a batch was acked with the IDs a fresh
// store fed by one driver must assign: record i gets ID i+1. The
// checker's content test relies on this.
func sequentialIDs(ids []kflushing.ID, b batchRef) bool {
	if len(ids) != b.n {
		return false
	}
	for j, id := range ids {
		if uint64(id) != uint64(b.first+j+1) {
			return false
		}
	}
	return true
}

func (t *inprocTarget) search(_ int, q searchReq, traced bool) (time.Time, searchSample) {
	var res kflushing.Result
	var tr *kflushing.Trace
	var err error
	if traced {
		res, tr, err = t.sys.SearchTraced(q.keys, q.op, topK)
	} else {
		res, err = t.sys.Search(q.keys, q.op, topK)
	}
	end := time.Now()
	s := searchSample{hit: res.MemoryHit, trace: tr}
	if err != nil {
		s.viol = violError
		return end, s
	}
	// Verified at once: holding 20 record pointers per search until the
	// phase ends would pin flushed records in the harness's heap.
	t.ans = answersOf(t.ans[:0], res)
	s.viol = t.chk.Check(q, topK, t.ans)
	return end, s
}

func answersOf(dst []Answer, res kflushing.Result) []Answer {
	for _, it := range res.Items {
		dst = append(dst, Answer{
			ID: uint64(it.MB.ID), Score: it.Score, UserID: it.MB.UserID,
			Keywords: it.MB.Keywords, Lat: it.MB.Lat, Lon: it.MB.Lon,
		})
	}
	return dst
}

func (t *inprocTarget) resolve([]ingestSample, []searchSample) {}

func (t *inprocTarget) lookup(key string, k int) ([]Answer, error) {
	res, err := t.sys.SearchKeyword(key, k)
	if err != nil {
		return nil, err
	}
	return answersOf(nil, res), nil
}

// settleTimeout bounds the wait for background work to drain.
const settleTimeout = 90 * time.Second

// pollSettled calls idle every few milliseconds until it reports true
// twice in a row.
func pollSettled(idle func() (bool, error)) error {
	deadline := time.Now().Add(settleTimeout)
	for calm := 0; calm < 2; {
		ok, err := idle()
		if err != nil {
			return err
		}
		if ok {
			calm++
		} else {
			calm = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store did not settle within %v", settleTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func idleHealth(h kflushing.DiskHealth) bool {
	return h.PipelineDepth == 0 && h.CompactionBacklog == 0
}

func (t *inprocTarget) settle() error {
	return pollSettled(func() (bool, error) {
		if err := t.sys.Err(); err != nil {
			return false, fmt.Errorf("background flush: %w", err)
		}
		return idleHealth(t.sys.DiskHealth()), nil
	})
}

func (t *inprocTarget) gauges() (int64, int, bool) {
	return t.sys.Engine().Mem().Used(), t.sys.DiskHealth().CompactionBacklog, true
}

func (t *inprocTarget) snapshot() (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pool, _ := t.sys.Engine().AllocStats()
	return counters{
		stats:      []kflushing.Stats{t.sys.Stats()},
		gcCycles:   int64(ms.NumGC),
		gcPause:    time.Duration(ms.PauseTotalNs),
		gcCPU:      gcCPUTime(),
		heapInuse:  int64(ms.HeapInuse),
		poolGets:   pool.Gets,
		poolReuses: pool.Reuses,
	}, nil
}

func (t *inprocTarget) close() error { return t.sys.Close() }

// gcCPUTime is the CPU time the collector has used, which unlike
// MemStats.GCCPUFraction can be differenced over a phase.
func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// heapInuseNow reads the live heap without stopping the world, for the
// 10 Hz sampler.
func heapInuseNow() int64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	var n int64
	for _, v := range s {
		if v.Value.Kind() == metrics.KindUint64 {
			n += int64(v.Value.Uint64())
		}
	}
	return n
}
