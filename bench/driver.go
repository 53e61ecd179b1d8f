package bench

import (
	"sync"
	"time"

	"kflushing"
)

// target is a store under load: the in-process kflushing.System or a
// kflushd child behind HTTP. The driver times the calls; everything
// else a target does (materialising inputs, verifying answers) happens
// outside the timed interval.
type target interface {
	// stage prepares the next ingest call so that materialising its
	// records is not charged to the store.
	stage(b batchRef)
	// ingest sends the staged batch (bi indexes set-up batches first)
	// and returns when the call returned.
	ingest(bi int, b batchRef) (end time.Time, s ingestSample)
	// search runs one query and returns when the call returned.
	search(qi int, q searchReq, traced bool) (end time.Time, s searchSample)
	// resolve finishes whatever verification search and ingest deferred,
	// filling in hit, viol and trace.
	resolve(ing []ingestSample, srch []searchSample)
	// lookup answers a single-keyword top-k query, for the oracle and
	// the recovery check.
	lookup(key string, k int) ([]Answer, error)
	// settle blocks until the flush pipeline is empty and no level is
	// over its fanout.
	settle() error
	// snapshot reads the phase-boundary counters.
	snapshot() (counters, error)
	// gauges samples cheap instantaneous values (10 Hz); ok is false
	// where the store offers no cheap read.
	gauges() (memUsed int64, backlog int, ok bool)
	// pid is the process that holds the store.
	pid() int
	// spanNames are the driver span names for this target's calls.
	spanNames() (ingest, search string)
	// close releases the store: Close in-process, kill for the child.
	close() error
}

// ingestSample is one ingest call.
type ingestSample struct {
	lat, svc int64 // ns: from due time, and of the call alone
	viol     string
	raw      [2]uint32 // deferred HTTP response, if any
	first, n int
}

// searchSample is one search call.
type searchSample struct {
	lat, svc int64
	qi       int
	kind     uint8
	op       kflushing.Op
	hit      bool
	sampled  bool // asked the store for its execution trace
	viol     string
	raw      [2]uint32
	trace    *kflushing.Trace
	span, id int // driver span and operation IDs when traced
}

// phasePlan is a fixed number of operations at fixed rates: the open
// loop. Independent users do not wait for each other, so an operation
// is due at its slot whether or not the previous one has finished.
type phasePlan struct {
	batches    []batchRef
	firstBatch int     // index of batches[0] among all batches (body lookup)
	ingestRate float64 // records per second
	queries    [2]int  // [first, end) of the generated searches
	queryRate  float64 // searches per second
	traced     bool    // record a span per call and sample the store's trace
	null       bool    // stub the calls: measures the harness alone
}

// phaseResult is what one phase observed.
type phaseResult struct {
	ingests  []ingestSample
	searches []searchSample
	lag      []int64 // ns the timer woke an idle driver late
	records  int
	ingWall  time.Duration // phase start to the last ingest call's return
	qryWall  time.Duration // likewise for searches
	// Over the sampled traces of memory misses: how many there were and
	// how many segments they had to look into (neither pruned by score
	// nor ruled out by the Bloom filter).
	tracedMisses, tracedSegments int
}

// traceSampling: in a traced phase one search in this many asks the
// store for its public execution trace; the rest run the plain path.
const traceSampling = 10

// openLoop paces one driver goroutine.
type openLoop struct {
	start    time.Time
	interval time.Duration
	lag      []int64
}

// begin blocks until slot i is due. It returns the instant latency runs
// from (see StartAndLag) and the instant the call actually starts.
func (o *openLoop) begin(i int) (from, call time.Time) {
	due := time.Duration(i) * o.interval
	arrived := time.Since(o.start)
	woke := arrived
	if arrived < due {
		time.Sleep(due - arrived)
		woke = time.Since(o.start)
	}
	f, lag := StartAndLag(due, arrived, woke)
	if arrived < due {
		o.lag = append(o.lag, int64(lag))
	}
	return o.start.Add(f), o.start.Add(woke)
}

// runPhase drives one phase: one ingest goroutine and one query
// goroutine, never more than the box has cores.
func runPhase(t target, in *Inputs, p phasePlan, rec *spanRecorder) phaseResult {
	var res phaseResult
	var wg sync.WaitGroup
	start := time.Now()
	var ingName, srchName string
	if !p.null {
		ingName, srchName = t.spanNames()
	}

	var ingLag, qryLag []int64
	if len(p.batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Slots are spaced by records, so a short final batch does
			// not shift the schedule.
			perRecord := time.Duration(float64(time.Second) / p.ingestRate)
			loop := openLoop{start: start, interval: perRecord * time.Duration(p.batches[0].n)}
			res.ingests = make([]ingestSample, 0, len(p.batches))
			var end time.Time
			for i, b := range p.batches {
				if !p.null {
					t.stage(b)
				} else {
					stageNull(in, b)
				}
				from, call := loop.begin(i)
				var s ingestSample
				if p.null {
					end = time.Now()
				} else {
					end, s = t.ingest(p.firstBatch+i, b)
				}
				s.lat, s.svc = int64(end.Sub(from)), int64(end.Sub(call))
				s.first, s.n = b.first, b.n
				res.ingests = append(res.ingests, s)
				res.records += b.n
				if p.traced {
					rec.add(ingName, call, end, map[string]int64{"records": int64(b.n)})
				}
			}
			res.ingWall = end.Sub(start)
			ingLag = loop.lag
		}()
	}
	if nq := p.queries[1] - p.queries[0]; nq > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop := openLoop{start: start, interval: time.Duration(float64(time.Second) / p.queryRate)}
			res.searches = make([]searchSample, 0, nq)
			var end time.Time
			for i := 0; i < nq; i++ {
				qi := p.queries[0] + i
				q := in.Query(qi)
				from, call := loop.begin(i)
				var s searchSample
				if p.null {
					end = time.Now()
				} else {
					sampled := p.traced && i%traceSampling == 0
					end, s = t.search(qi, q, sampled)
					s.sampled = sampled
				}
				s.lat, s.svc = int64(end.Sub(from)), int64(end.Sub(call))
				s.qi, s.kind, s.op = qi, uint8(q.kind), q.op
				if p.traced {
					s.span, s.id = rec.add(srchName, call, end, nil)
				}
				res.searches = append(res.searches, s)
			}
			res.qryWall = end.Sub(start)
			qryLag = loop.lag
		}()
	}
	wg.Wait()
	res.lag = append(ingLag, qryLag...)
	if !p.null {
		t.resolve(res.ingests, res.searches)
	}
	for i := range res.searches {
		if s := &res.searches[i]; s.trace != nil {
			rec.addTrace(s.span, s.id, s.trace)
			if d := s.trace.Disk; d != nil {
				res.tracedMisses++
				for _, sp := range d.Segments {
					if !sp.Pruned && sp.DirProbes > 0 {
						res.tracedSegments++
					}
				}
			}
			s.trace = nil
		}
	}
	return res
}

// stageNull materialises a batch and drops it: what the harness spends
// per record with the store call stubbed out.
func stageNull(in *Inputs, b batchRef) {
	for i := b.first; i < b.first+b.n; i++ {
		nullSink = in.Record(i)
	}
}

// nullSink keeps stageNull's work from being optimised away.
var nullSink *kflushing.Microblog
