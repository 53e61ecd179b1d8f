package blackbox

import (
	"fmt"

	"kflushing/internal/query"
)

// The flush log and the slow-query log are views: pure functions over a
// snapshot of recorder events (Recorder.Events, a dump file, the JSON of
// /debug/blackbox), grouping by event ID. Nothing is stored for them.

// Trigger says why a flush cycle ran; it is flush_begin's first
// argument.
type Trigger int64

const (
	TriggerBudget   Trigger = iota // ingestion filled the memory budget
	TriggerManual                  // FlushNow
	TriggerRecovery                // WAL replay overfilled the budget
)

var triggerNames = [...]string{"budget", "manual", "recovery"}

// String returns the trigger's wire name.
func (t Trigger) String() string {
	if t < 0 || int(t) >= len(triggerNames) {
		return "unknown"
	}
	return triggerNames[t]
}

// Flush phase numbers, flush_phase's fourth argument: kFlushing's three
// phases, then the baselines' single ones.
const (
	PhaseRegular = iota + 1
	PhaseAggressive
	PhaseForced
	PhaseFIFOSegments
	PhaseLRUTail
)

var phaseNames = [...]string{"", "regular", "aggressive", "forced", "fifo-segments", "lru-tail"}

// FlushPhase is one executed phase of a flush cycle.
type FlushPhase struct {
	// Phase is the kFlushing phase number, or 0 for the single-phase
	// policies (FIFO, LRU).
	Phase int `json:"phase"`
	// Name labels the phase ("regular", "aggressive", "forced",
	// "fifo-segments", "lru-tail").
	Name string `json:"name"`
	// Victims counts the phase's eviction units: index entries trimmed
	// (Phase 1), entries evicted (Phases 2-3), segments dropped (FIFO),
	// or records evicted (LRU).
	Victims int64 `json:"victims"`
	// Freed is the budget-relevant bytes the phase freed.
	Freed int64 `json:"freed_bytes"`
	// Nanos is the phase duration.
	Nanos int64 `json:"nanos"`
	// ShardNanos are per-worker durations when the phase fanned out
	// over a worker pool (parallel Phase 1), empty otherwise.
	ShardNanos []int64 `json:"shard_nanos,omitempty"`
}

// FlushStage is one pipeline stage of a flush cycle.
type FlushStage struct {
	// Name is the stage ("prepare", "build", "install", "release").
	Name string `json:"name"`
	// Nanos is the stage duration.
	Nanos int64 `json:"nanos"`
	// Worker reports the stage ran on the pipeline worker, after the
	// cycle had given the flush gate back; false means inline, under it.
	Worker bool `json:"worker,omitempty"`
}

// FlushCycle is one flush cycle, reassembled from the events that carry
// its ID.
type FlushCycle struct {
	// ID is the cycle's event ID; /debug/blackbox?id= lists its events.
	ID uint64 `json:"id"`
	// Start is the cycle start time in Unix nanoseconds.
	Start int64 `json:"start_unix_nanos"`
	// Policy is the flushing policy that ran. The events do not name
	// it; whoever knows the engine fills it in.
	Policy string `json:"policy,omitempty"`
	// Trigger says why the cycle ran: "budget" (memory filled),
	// "manual" (FlushNow), or "recovery" (WAL replay overfilled).
	Trigger string `json:"trigger"`
	// Target is the requested bytes to free (budget B).
	Target int64 `json:"target_bytes"`
	// Freed is the budget-relevant bytes actually freed.
	Freed int64 `json:"freed_bytes"`
	// Satisfied reports Freed >= Target — the saturation signal of the
	// paper's Figure 5(a) regime when persistently false.
	Satisfied bool `json:"satisfied"`
	// Nanos is the cycle's duration under the flush gate; stages the
	// pipeline worker ran come after it.
	Nanos int64 `json:"nanos"`
	// MemBefore/MemAfter bracket the cycle's memory gauge.
	MemBefore int64 `json:"mem_before_bytes"`
	MemAfter  int64 `json:"mem_after_bytes"`
	// Err is the flush error, if any: the cycle's own, or the one its
	// completion met on the worker.
	Err string `json:"error,omitempty"`
	// Complete reports the cycle has ended and its batch has been
	// released; false while the flusher is still in the cycle or the
	// completion is still queued or running on the worker.
	Complete bool `json:"complete"`
	// Phases are the executed phases in order.
	Phases []FlushPhase `json:"phases"`
	// Stages are the cycle's stages in the order they ran: prepare under
	// the gate, then build, install and release wherever they ran.
	Stages []FlushStage `json:"stages,omitempty"`
}

// FlushCycles groups the flush events of a sequence-ordered snapshot
// into cycles, oldest first. epochUnixNanos is the recorder epoch of the
// process the events came from (EpochUnixNanos locally; a dump file and
// /debug/blackbox carry theirs). A cycle whose flush_begin the ring has
// already recycled is left out whole.
func FlushCycles(events []Event, epochUnixNanos int64) []FlushCycle {
	var out []FlushCycle
	at := map[uint64]int{}      // cycle ID → index in out
	queued := map[uint64]bool{} // the cycle's batch went to the worker
	for _, ev := range events {
		if ev.Subsystem != SubFlush.String() || ev.ID == 0 {
			continue
		}
		if ev.Event == EvFlushBegin.String() {
			at[ev.ID] = len(out)
			out = append(out, FlushCycle{
				ID:        ev.ID,
				Start:     epochUnixNanos + ev.Nanos,
				Trigger:   Trigger(ev.Args["trigger"]).String(),
				Target:    ev.Args["target_bytes"],
				MemBefore: ev.Args["mem_before_bytes"],
				Phases:    []FlushPhase{},
			})
			continue
		}
		i, ok := at[ev.ID]
		if !ok {
			continue
		}
		c := &out[i]
		nanos := ev.Args["nanos"]
		switch ev.Event {
		case EvFlushPhase.String():
			p := FlushPhase{Victims: ev.Args["victims"], Freed: ev.Args["freed_bytes"], Nanos: nanos}
			if n := ev.Args["phase"]; n > 0 && int(n) < len(phaseNames) {
				p.Name = phaseNames[n]
				if n <= PhaseForced {
					p.Phase = int(n)
				}
			}
			c.Phases = append(c.Phases, p)
		case EvFlushPhaseWorker.String():
			if n := len(c.Phases); n > 0 {
				c.Phases[n-1].ShardNanos = append(c.Phases[n-1].ShardNanos, nanos)
			}
		case EvFlushPrepare.String():
			c.Stages = append(c.Stages, FlushStage{Name: "prepare", Nanos: nanos})
		case EvFlushEnqueue.String():
			queued[c.ID] = true
		case EvFlushBuild.String(), EvFlushInstall.String(), EvFlushRelease.String():
			worker := ev.Args["worker"] != 0
			c.Stages = append(c.Stages, FlushStage{Name: ev.Event[len("flush_"):], Nanos: nanos, Worker: worker})
			if ev.Event == EvFlushRelease.String() && worker {
				c.Complete = true
				if c.Err == "" {
					c.Err = ev.Note
				}
			}
		case EvFlushEnd.String():
			c.Freed = ev.Args["freed_bytes"]
			c.Satisfied = c.Freed >= c.Target
			c.MemAfter = ev.Args["mem_after_bytes"]
			c.Nanos = nanos
			c.Err = ev.Note
			c.Complete = !queued[c.ID]
		}
	}
	return out
}

// CheckTimings verifies that the cycle's parts add up: the phases fit in
// the prepare stage, and the stages that ran inline (prepare always
// does) fit in the cycle's time under the gate. A cycle still in
// progress is checked as far as its events go.
func (c FlushCycle) CheckTimings() error {
	var phases, inline int64
	for _, p := range c.Phases {
		phases += p.Nanos
	}
	for _, st := range c.Stages {
		if !st.Worker {
			inline += st.Nanos
		}
	}
	if len(c.Stages) > 0 && phases > c.Stages[0].Nanos {
		return fmt.Errorf("cycle %d: phases take %d ns of a %d ns prepare stage", c.ID, phases, c.Stages[0].Nanos)
	}
	if c.Nanos > 0 && inline > c.Nanos {
		return fmt.Errorf("cycle %d: inline stages take %d ns of a %d ns cycle", c.ID, inline, c.Nanos)
	}
	return nil
}

// SlowQuery is one search that reached the slow-query threshold.
type SlowQuery struct {
	// Seq places the query on the merged event timeline; ID is what
	// /debug/blackbox?id= finds it by.
	Seq uint64 `json:"seq"`
	ID  uint64 `json:"id"`
	// UnixNanos is when the query finished.
	UnixNanos     int64  `json:"unix_nanos"`
	DurationNanos int64  `json:"duration_nanos"`
	Op            string `json:"op"`
	K             int    `json:"k"`
	// Keys are the query's encoded keys, space-separated, NumKeys of
	// them: what to re-run with ?trace=1 for the per-segment detail.
	Keys      string `json:"keys"`
	NumKeys   int    `json:"num_keys"`
	MemoryHit bool   `json:"memory_hit"`
	// IndexNanos, HeapNanos and DiskNanos are the stages the query
	// histograms time; their sum is at most DurationNanos.
	IndexNanos int64 `json:"index_nanos"`
	HeapNanos  int64 `json:"heap_nanos"`
	DiskNanos  int64 `json:"disk_nanos"`
}

// RecordSlowQuery stamps one query_slow event under a fresh ID. The
// event has more values than argument words, so they are packed: the
// total in a, the disk stage in b, the two in-memory stages —
// microseconds in practice, clamped at 32 bits (4.3 s) each — in c, and
// op, hit, key count and k in d. keys is the note.
func (r *Recorder) RecordSlowQuery(op query.Op, k, numKeys int, hit bool, indexNs, heapNs, diskNs, totalNs int64, keys string) {
	d := int64(op)&3 | min(int64(numKeys), 1<<13-1)<<3 | min(int64(k), 1<<24-1)<<16
	if hit {
		d |= 1 << 2
	}
	c := min(indexNs, 1<<32-1)<<32 | min(heapNs, 1<<32-1)
	r.RecordNote(SubQuery, EvQuerySlow, NextSeq(), d, totalNs, diskNs, c, keys)
}

// unpackSlowQuery is RecordSlowQuery's inverse, into labeled args.
func unpackSlowQuery(d, a, b, c int64) map[string]int64 {
	return map[string]int64{
		"total_ns": a,
		"disk_ns":  b,
		"index_ns": int64(uint64(c) >> 32),
		"heap_ns":  c & (1<<32 - 1),
		"op":       d & 3,
		"hit":      d >> 2 & 1,
		"keys":     d >> 3 & (1<<13 - 1),
		"k":        d >> 16,
	}
}

// SlowQueries lists the slow queries in a snapshot, oldest first.
// epochUnixNanos is as for FlushCycles.
func SlowQueries(events []Event, epochUnixNanos int64) []SlowQuery {
	var out []SlowQuery
	for _, ev := range events {
		if ev.Event != EvQuerySlow.String() {
			continue
		}
		out = append(out, SlowQuery{
			Seq:           ev.Seq,
			ID:            ev.ID,
			UnixNanos:     epochUnixNanos + ev.Nanos,
			DurationNanos: ev.Args["total_ns"],
			Op:            query.Op(ev.Args["op"]).String(),
			K:             int(ev.Args["k"]),
			Keys:          ev.Note,
			NumKeys:       int(ev.Args["keys"]),
			MemoryHit:     ev.Args["hit"] != 0,
			IndexNanos:    ev.Args["index_ns"],
			HeapNanos:     ev.Args["heap_ns"],
			DiskNanos:     ev.Args["disk_ns"],
		})
	}
	return out
}
