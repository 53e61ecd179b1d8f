package blackbox

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/query"
)

// cycleScript is the event sequence of one kFlushing cycle as the
// engine emits it, all under the flush gate: begin, three phases, the
// four stages, end.
var cycleScript = []Code{
	EvFlushBegin, EvFlushPhase, EvFlushPhase, EvFlushPhase, EvFlushPrepare,
	EvFlushBuild, EvFlushInstall, EvFlushRelease, EvFlushEnd,
}

// emit records step i of cycleScript for cycle id. Every argument is a
// function of id, so a view that mixed two cycles up would show it.
func emit(r *Recorder, id uint64, i int) {
	v := int64(id)
	switch code := cycleScript[i]; code {
	case EvFlushBegin:
		r.RecordID(SubFlush, code, id, 0, int64(TriggerBudget), 100*v, 1000*v)
	case EvFlushPhase:
		r.RecordID(SubFlush, code, id, int64(i), v, 10*v, 1) // i is 1..3: the phase number
	case EvFlushPrepare:
		r.RecordID(SubFlush, code, id, 0, 100*v, 30*v, 5)
	case EvFlushEnd:
		r.RecordID(SubFlush, code, id, 1, 30*v, 900*v, 20)
	default:
		r.RecordID(SubFlush, code, id, 0, v, 64*v, 2)
	}
}

// checkScriptPrefix holds one viewed cycle to the script: what the view
// shows must be a prefix of the cycle's emission — never a later event
// without every earlier one — with each value its own cycle's.
func checkScriptPrefix(t *testing.T, c FlushCycle) (events int) {
	t.Helper()
	v := int64(c.ID)
	if c.Trigger != "budget" || c.Target != 100*v || c.MemBefore != 1000*v {
		t.Errorf("cycle %d: begin = %+v", c.ID, c)
	}
	for i, p := range c.Phases {
		if p.Phase != i+1 || p.Victims != v || p.Freed != 10*v {
			t.Errorf("cycle %d: phase %d = %+v", c.ID, i, p)
		}
	}
	wantStages := []FlushStage{{"prepare", 5}, {"build", 2}, {"install", 2}, {"release", 2}}
	if n := len(c.Stages); n > len(wantStages) || n > 0 && !reflect.DeepEqual(c.Stages, wantStages[:n]) {
		t.Errorf("cycle %d: stages = %+v", c.ID, c.Stages)
	}
	ended := c.Nanos != 0
	if ended && (c.Nanos != 20 || c.Freed != 30*v || c.MemAfter != 900*v || c.Satisfied) {
		t.Errorf("cycle %d: end = %+v", c.ID, c)
	}
	if len(c.Stages) > 0 && len(c.Phases) != 3 {
		t.Errorf("cycle %d: prepare shown with %d of 3 phases", c.ID, len(c.Phases))
	}
	if ended && len(c.Stages) == 0 {
		t.Errorf("cycle %d: flush_end shown without prepare", c.ID)
	}
	if ended && len(c.Stages) != 4 {
		t.Errorf("cycle %d: flush_end shown without every stage", c.ID)
	}
	if c.Complete != ended {
		t.Errorf("cycle %d: complete = %v with stages %+v", c.ID, c.Complete, c.Stages)
	}
	if err := c.CheckTimings(); err != nil {
		t.Error(err)
	}
	return 1 + len(c.Phases) + len(c.Stages) // begin, phases, stages (end not counted)
}

// TestFlushCyclesView records a budget cycle and a manual LRU cycle
// among events that belong to no cycle: each cycle comes back as one
// record, its phases and stages in emission order.
func TestFlushCyclesView(t *testing.T) {
	r := newSized(64)
	const a, b = 11, 12
	r.Record(SubWAL, EvWALAppend, 3, 256, 900)
	r.RecordID(SubFlush, EvFlushBegin, a, 0, int64(TriggerBudget), 4096, 50_000)
	r.RecordID(SubFlush, EvFlushPhase, a, PhaseRegular, 40, 3000, 700)
	r.RecordID(SubFlush, EvFlushPhaseWorker, a, 0, PhaseRegular, 0, 300)
	r.RecordID(SubFlush, EvFlushPhaseWorker, a, 0, PhaseRegular, 1, 400)
	r.RecordID(SubFlush, EvFlushPhase, a, PhaseAggressive, 7, 1500, 200)
	r.RecordID(SubFlush, EvFlushPrepare, a, 0, 4096, 4500, 1000)
	r.Record(SubWAL, EvWALSync, 3, 4096, 700)
	r.RecordID(SubFlush, EvFlushBuild, a, 0, 47, 9000, 5000)
	r.RecordID(SubFlush, EvFlushInstall, a, 0, 47, 9000, 800)
	r.RecordID(SubFlush, EvFlushRelease, a, 0, 47, 9000, 90)
	r.RecordID(SubFlush, EvFlushEnd, a, 1, 4500, 45_500, 7000)
	r.RecordID(SubFlush, EvFlushBegin, b, 0, int64(TriggerManual), 100, 45_500)
	r.RecordID(SubFlush, EvFlushPhase, b, PhaseLRUTail, 9, 120, 60)
	r.RecordID(SubFlush, EvFlushPrepare, b, 0, 100, 120, 70)
	r.RecordID(SubFlush, EvFlushBuild, b, 0, 9, 700, 10)
	r.RecordID(SubFlush, EvFlushInstall, b, 0, 9, 700, 10)
	r.RecordID(SubFlush, EvFlushRelease, b, 0, 9, 700, 5)
	r.RecordID(SubFlush, EvFlushEnd, b, 1, 120, 45_380, 100)
	r.Record(SubState, EvDegradedClear, 0, 0, 0)

	events := r.Events()
	got := FlushCycles(events, 1_000_000)
	begins := map[uint64]int64{}
	for _, ev := range events {
		if ev.Event == "flush_begin" {
			begins[ev.ID] = ev.Nanos
		}
	}
	want := []FlushCycle{
		{ID: a, Start: 1_000_000 + begins[a], Trigger: "budget", Target: 4096, Freed: 4500, Satisfied: true,
			Nanos: 7000, MemBefore: 50_000, MemAfter: 45_500, Complete: true,
			Phases: []FlushPhase{
				{Phase: 1, Name: "regular", Victims: 40, Freed: 3000, Nanos: 700, ShardNanos: []int64{300, 400}},
				{Phase: 2, Name: "aggressive", Victims: 7, Freed: 1500, Nanos: 200},
			},
			Stages: []FlushStage{{"prepare", 1000}, {"build", 5000}, {"install", 800}, {"release", 90}}},
		{ID: b, Start: 1_000_000 + begins[b], Trigger: "manual", Target: 100, Freed: 120, Satisfied: true,
			Nanos: 100, MemBefore: 45_500, MemAfter: 45_380, Complete: true,
			Phases: []FlushPhase{{Phase: 0, Name: "lru-tail", Victims: 9, Freed: 120, Nanos: 60}},
			Stages: []FlushStage{{"prepare", 70}, {"build", 10}, {"install", 10}, {"release", 5}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FlushCycles =\n%+v\nwant\n%+v", got, want)
	}
	for i := range got {
		if err := got[i].CheckTimings(); err != nil {
			t.Error(err)
		}
	}
	// The flush ring alone is enough: the view reads no other subsystem.
	if flushOnly := FlushCycles(r.EventsOf(SubFlush), 1_000_000); !reflect.DeepEqual(flushOnly, want) {
		t.Fatalf("view over the flush ring alone differs: %+v", flushOnly)
	}
}

// TestFlushCyclesRingWrap wraps the flush ring several times over: the
// view holds the newest cycles in order, every one whole — the cycle the
// ring's old end cuts through is left out, not shown from its middle.
func TestFlushCyclesRingWrap(t *testing.T) {
	const size, cycles = 64, 40
	r := newSized(size)
	for id := uint64(1); id <= cycles; id++ {
		for i := range cycleScript {
			emit(r, id, i)
		}
	}
	got := FlushCycles(r.Events(), 0)
	// 64 slots hold seven whole 9-event cycles and the tail of an eighth.
	if want := size / len(cycleScript); len(got) != want {
		t.Fatalf("view holds %d cycles, want %d", len(got), want)
	}
	for i, c := range got {
		if want := uint64(cycles - len(got) + 1 + i); c.ID != want {
			t.Fatalf("cycle %d of the view has ID %d, want %d", i, c.ID, want)
		}
		if n := checkScriptPrefix(t, c); n != 8 || !c.Complete {
			t.Fatalf("cycle %d shown in part: %+v", c.ID, c)
		}
	}
}

// TestFlushCyclesIncomplete follows one cycle through the view as its
// events arrive: it is listed from flush_begin on, with what it has so
// far, and reads complete only once flush_end is in, not at its last
// stage.
func TestFlushCyclesIncomplete(t *testing.T) {
	r := newSized(32)
	for i := range cycleScript {
		emit(r, 3, i)
		got := FlushCycles(r.Events(), 0)
		if len(got) != 1 {
			t.Fatalf("after %s: %d cycles listed, want 1", cycleScript[i], len(got))
		}
		checkScriptPrefix(t, got[0])
		if want := i == len(cycleScript)-1; got[0].Complete != want {
			t.Fatalf("after %s: complete = %v, want %v", cycleScript[i], got[0].Complete, want)
		}
	}
}

// TestFlushCyclesOrphanEventsDropped: flush events that name no cycle,
// or a cycle whose flush_begin is not in the snapshot, contribute
// nothing.
func TestFlushCyclesOrphanEventsDropped(t *testing.T) {
	r := newSized(16)
	r.RecordID(SubFlush, EvFlushPhase, 5, PhaseRegular, 1, 2, 3)
	r.RecordID(SubFlush, EvFlushEnd, 5, 0, 2, 0, 9)
	r.Record(SubFlush, EvFlushPrepare, 1, 2, 3)
	if got := FlushCycles(r.Events(), 0); len(got) != 0 {
		t.Fatalf("orphan events produced cycles: %+v", got)
	}
}

// TestFlushCyclesUnsatisfiedAndError: a cycle that freed less than its
// target reads SHORT, and a failed one carries flush_end's note as its
// error.
func TestFlushCyclesUnsatisfiedAndError(t *testing.T) {
	r := newSized(32)
	r.RecordID(SubFlush, EvFlushBegin, 1, 0, int64(TriggerRecovery), 1000, 5000)
	r.RecordID(SubFlush, EvFlushPrepare, 1, 0, 1000, 400, 50)
	r.RecordID(SubFlush, EvFlushRelease, 1, 0, 3, 0, 10)
	r.RecordNote(SubFlush, EvFlushEnd, 1, 0, 400, 5000, 80, "disk full")
	r.RecordID(SubFlush, EvFlushBegin, 2, 0, int64(TriggerBudget), 1000, 5000)
	r.RecordID(SubFlush, EvFlushPrepare, 2, 0, 1000, 1000, 50)
	r.RecordID(SubFlush, EvFlushRelease, 2, 0, 3, 0, 10)
	r.RecordID(SubFlush, EvFlushEnd, 2, 1, 1000, 4000, 60)
	got := FlushCycles(r.Events(), 0)
	if len(got) != 2 {
		t.Fatalf("got %d cycles, want 2", len(got))
	}
	if c := got[0]; c.Trigger != "recovery" || c.Satisfied || c.Err != "disk full" || !c.Complete {
		t.Fatalf("failed cycle = %+v", c)
	}
	if c := got[1]; !c.Satisfied || c.Err != "" || !c.Complete {
		t.Fatalf("clean cycle = %+v", c)
	}
}

// TestFlushCyclesConcurrentReaders is the race battery for the view:
// two flushing goroutines taking turns, as background cycles and
// FlushNow callers do behind the flush gate, wrap a small ring many
// times over while readers build views. Every cycle a view shows must be
// a prefix of its own emission: whole, or still in progress, never
// missing an event from its middle or carrying another cycle's.
func TestFlushCyclesConcurrentReaders(t *testing.T) {
	r := newSized(64)
	const views = 600 // the writers keep wrapping until this many have been built
	var built atomic.Int64
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last uint64
				for _, c := range FlushCycles(r.EventsOf(SubFlush), 0) {
					if c.ID <= last {
						t.Errorf("cycle %d listed after cycle %d", c.ID, last)
					}
					last = c.ID
					checkScriptPrefix(t, c)
				}
				built.Add(1)
				if t.Failed() {
					return
				}
			}
		}()
	}
	// A writer runs a whole cycle, then hands the next ID — the flush
	// gate — to the other.
	gate := make(chan uint64, 1)
	gate <- 1
	var writeWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for id := range gate {
				if built.Load() >= views || t.Failed() {
					close(gate)
					return
				}
				for i := range cycleScript {
					emit(r, id, i)
				}
				gate <- id + 1
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
}

// TestSlowQueriesView records more slow queries than the query ring
// holds: the view keeps the newest, oldest first, and every packed
// field comes back — the in-memory stages clamped, not wrapped.
func TestSlowQueriesView(t *testing.T) {
	r := newSized(4)
	for i := 0; i < 10; i++ {
		r.RecordSlowQuery(query.OpAnd, 20+i, 2, i%2 == 0, 100, 50, int64(1000+i), int64(2000+i), "a b")
	}
	r.RecordID(SubFlush, EvFlushBegin, 1, 0, 0, 0, 0)
	got := SlowQueries(r.Events(), 5_000)
	if len(got) != 4 {
		t.Fatalf("view holds %d slow queries, want 4", len(got))
	}
	for i, q := range got {
		n := 6 + i
		want := SlowQuery{Seq: q.Seq, ID: q.ID, UnixNanos: q.UnixNanos, DurationNanos: int64(2000 + n),
			Op: "and", K: 20 + n, Keys: "a b", NumKeys: 2, MemoryHit: n%2 == 0,
			IndexNanos: 100, HeapNanos: 50, DiskNanos: int64(1000 + n)}
		if q != want {
			t.Errorf("entry %d = %+v, want %+v", i, q, want)
		}
		if q.ID == 0 || q.Seq <= q.ID || q.UnixNanos <= 5_000 {
			t.Errorf("entry %d: id %d, seq %d, unix %d: ID must be a global ticket drawn before the event's", i, q.ID, q.Seq, q.UnixNanos)
		}
		if i > 0 && (q.Seq <= got[i-1].Seq || q.ID <= got[i-1].ID) {
			t.Errorf("entry %d out of order", i)
		}
		if q.IndexNanos+q.HeapNanos+q.DiskNanos > q.DurationNanos {
			t.Errorf("entry %d: stages exceed the total", i)
		}
	}
	r.RecordSlowQuery(query.OpSingle, 1<<30, 1<<20, false, 1<<40, 1<<40, 7, 1<<41, "")
	q := SlowQueries(r.Events(), 0)
	if last := q[len(q)-1]; last.IndexNanos != 1<<32-1 || last.HeapNanos != 1<<32-1 ||
		last.K != 1<<24-1 || last.NumKeys != 1<<13-1 || last.DiskNanos != 7 || last.DurationNanos != 1<<41 || last.Op != "single" {
		t.Fatalf("out-of-range fields not clamped: %+v", last)
	}
}
