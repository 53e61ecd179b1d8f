// Package blackbox is the engine's always-on flight recorder and its
// only event store: a set of fixed-size per-subsystem event rings that
// the hot paths stamp with a global atomic sequence number and monotonic
// nanoseconds. Recording is lock-free and allocation-free — a handful of
// atomic stores — so the recorder stays on in production and every
// incident ships with the events that preceded it (the rings are dumped
// to disk on degraded-mode entry and on panic). An event may carry the
// ID of the flush cycle or query it belongs to and, rarely, a note; the
// flush log and the slow-query log are views over such events (view.go).
//
// Writers claim a slot with an atomic ticket and publish it seqlock
// style: the slot's sequence word is zeroed, the payload fields are
// stored, then the final sequence is stored. Readers copy the payload
// between two loads of the sequence word and discard the copy when the
// loads disagree, so a reader can never observe a torn event, and a ring
// snapshot is a contiguous run of tickets (see ringEvents).
//
// A nil *Recorder is the disabled recorder: every method is safe to call
// on it and does nothing, so call sites need no guards.
//
//kfvet:nilsafe
package blackbox

import (
	"sort"
	"sync/atomic"
	"time"
)

// Subsystem partitions the recorder into one ring per event source, so
// a chatty subsystem (ingest) can never evict another's history (a rare
// degraded transition).
type Subsystem uint8

const (
	SubIngest Subsystem = iota
	SubWAL
	SubFlush
	SubCompact
	SubCache
	SubDisk
	SubState
	SubQuery

	numSubsystems
)

var subsystemNames = [numSubsystems]string{
	SubIngest:  "ingest",
	SubWAL:     "wal",
	SubFlush:   "flush",
	SubCompact: "compact",
	SubCache:   "cache",
	SubDisk:    "disk",
	SubState:   "state",
	SubQuery:   "query",
}

// Ring sizes, in 64-byte slots: 1024 events is minutes of history at
// production rates. The flush ring is what FlushCycles reads, and a
// cycle is about a dozen events (begin, up to three phases, prepare,
// enqueue, build, install, release, end): 4096 slots retain upwards of
// 256 cycles. ≈ 700 KiB per recorder.
const (
	ringSize      = 1024
	flushRingSize = 4096
)

// String returns the subsystem's wire name.
func (s Subsystem) String() string {
	if int(s) >= len(subsystemNames) {
		return "unknown"
	}
	return subsystemNames[s]
}

// Subsystems lists every subsystem name in ring order, for endpoint
// validation messages.
func Subsystems() []string {
	out := make([]string, numSubsystems)
	copy(out, subsystemNames[:])
	return out
}

// ParseSubsystem resolves a wire name back to its subsystem.
func ParseSubsystem(name string) (Subsystem, bool) {
	for i, n := range subsystemNames {
		if n == name {
			return Subsystem(i), true
		}
	}
	return 0, false
}

// Code identifies what happened. Each code belongs to one subsystem and
// fixes the meaning of the event's argument words.
type Code uint8

const (
	EvIngestBatch Code = iota
	EvWALAppend
	EvWALSync
	EvWALRotate
	EvWALReclaim
	EvFlushBegin
	EvFlushPhase
	EvFlushPhaseWorker
	EvFlushPrepare
	EvFlushEnqueue
	EvFlushFallback
	EvFlushBuild
	EvFlushInstall
	EvFlushRelease
	EvFlushEnd
	EvCompactPass
	EvCacheEvict
	EvDiskRetry
	EvDegradedEnter
	EvDegradedClear
	EvQuerySlow

	numCodes
)

var codeNames = [numCodes]string{
	EvIngestBatch:      "ingest_batch",
	EvWALAppend:        "wal_append",
	EvWALSync:          "wal_sync",
	EvWALRotate:        "wal_rotate",
	EvWALReclaim:       "wal_reclaim",
	EvFlushBegin:       "flush_begin",
	EvFlushPhase:       "flush_phase",
	EvFlushPhaseWorker: "flush_phase_worker",
	EvFlushPrepare:     "flush_prepare",
	EvFlushEnqueue:     "flush_enqueue",
	EvFlushFallback:    "flush_fallback",
	EvFlushBuild:       "flush_build",
	EvFlushInstall:     "flush_install",
	EvFlushRelease:     "flush_release",
	EvFlushEnd:         "flush_end",
	EvCompactPass:      "compact_pass",
	EvCacheEvict:       "cache_evict",
	EvDiskRetry:        "disk_retry",
	EvDegradedEnter:    "degraded_enter",
	EvDegradedClear:    "degraded_clear",
	EvQuerySlow:        "query_slow",
}

// codeArgNames labels each code's argument words for the JSON timeline:
// a, b, c, then the small fourth value d that shares the code's word.
// An empty label marks an unused word. EvQuerySlow packs more than four
// values and is decoded by unpackSlowQuery instead.
var codeArgNames = [numCodes][4]string{
	EvIngestBatch:      {"records", "skipped", "nanos"},
	EvWALAppend:        {"frames", "bytes", "nanos"},
	EvWALSync:          {"frames", "file_bytes", "nanos"},
	EvWALRotate:        {"file_seq", "rotated_bytes", "nanos"},
	EvWALReclaim:       {"file_seq", "survivors", "nanos"},
	EvFlushBegin:       {"trigger", "target_bytes", "mem_before_bytes"},
	EvFlushPhase:       {"victims", "freed_bytes", "nanos", "phase"},
	EvFlushPhaseWorker: {"phase", "worker", "nanos"},
	EvFlushPrepare:     {"target_bytes", "freed_bytes", "nanos"},
	EvFlushEnqueue:     {"records", "queue_depth"},
	EvFlushFallback:    {"records"},
	EvFlushBuild:       {"records", "bytes", "nanos", "worker"},
	EvFlushInstall:     {"records", "bytes", "nanos", "worker"},
	EvFlushRelease:     {"records", "bytes", "nanos", "worker"},
	EvFlushEnd:         {"freed_bytes", "mem_after_bytes", "nanos", "durable"},
	EvCompactPass:      {"level", "segments_in", "nanos"},
	EvCacheEvict:       {"evicted", "resident_bytes"},
	EvDiskRetry:        {"retries", "ordinal"},
}

// String returns the code's wire name.
func (c Code) String() string {
	if int(c) >= len(codeNames) {
		return "unknown"
	}
	return codeNames[c]
}

// globalSeq is the recorder-wide event ticket: one monotonic sequence
// shared by every Recorder in the process, so timelines from several
// attribute engines merge into a single true order.
var globalSeq atomic.Uint64

// epoch anchors event timestamps: nanos are measured from process start
// on the monotonic clock (immune to wall-clock steps, and reading it
// never allocates).
var epoch = time.Now()

// EpochUnixNanos returns the wall-clock instant of the recorder epoch,
// letting consumers convert event nanos back to absolute time.
func EpochUnixNanos() int64 { return epoch.UnixNano() }

// NextSeq claims one number from the global ticket. Event IDs (a flush
// cycle's, a slow query's) are drawn from it, so an ID is unique across
// every recorder in the process and sorts with the events around it.
//
//kfvet:noalloc
func NextSeq() uint64 { return globalSeq.Add(1) }

// slot is one fixed-size event, a cache line: a seqlock word, six
// payload words and the note pointer. All fields are atomics so
// concurrent writers racing a wrapped ring and concurrent readers stay
// within the memory model; torn payloads are rejected by the seq
// double-check, never observed.
type slot struct {
	seq   atomic.Uint64
	nanos atomic.Int64
	// code: the Code in bits 0-7, the low byte of the slot's lap round
	// the ring in bits 8-15 (which ticket this is, see ringEvents), the
	// event's fourth argument d in the 48 bits above.
	code atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
	id   atomic.Uint64
	note atomic.Pointer[string]
}

// maxD is the largest fourth argument the code word has room for.
const maxD = 1<<48 - 1

// ring is one subsystem's event history. Writers take tickets from next
// and overwrite slots modulo the ring size.
type ring struct {
	next  atomic.Uint64
	slots []slot
}

// Recorder is one engine's flight recorder. Safe for concurrent use by
// any number of writers and readers; the zero-value pointer (nil) is the
// disabled recorder.
type Recorder struct {
	rings [numSubsystems]ring
}

// New builds a recorder.
func New() *Recorder { return newRecorder(ringSize, flushRingSize) }

func newRecorder(size, flushSize int) *Recorder {
	r := &Recorder{}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
	}
	r.rings[SubFlush].slots = make([]slot, flushSize)
	return r
}

// Record stamps one standalone event into sub's ring: global sequence,
// monotonic nanos, and three argument words whose meaning the code
// fixes. It is the hot-path entry point — lock-free, allocation-free,
// nil-safe.
//
//kfvet:noalloc
func (r *Recorder) Record(sub Subsystem, code Code, a, b, c int64) {
	r.record(sub, code, 0, 0, a, b, c, nil)
}

// RecordID stamps an event that belongs to the flush cycle or query id,
// with the code's small fourth argument d (at most 48 bits).
//
//kfvet:noalloc
func (r *Recorder) RecordID(sub Subsystem, code Code, id uint64, d, a, b, c int64) {
	r.record(sub, code, id, d, a, b, c, nil)
}

// RecordNote is RecordID with text attached — a failed cycle's error, a
// slow query's keys. It allocates the note, so it is for the rare events
// that need one; an empty note attaches nothing.
func (r *Recorder) RecordNote(sub Subsystem, code Code, id uint64, d, a, b, c int64, note string) {
	var p *string
	if note != "" {
		n := note
		p = &n
	}
	r.record(sub, code, id, d, a, b, c, p)
}

//kfvet:noalloc
//kfvet:seqlock writer
func (r *Recorder) record(sub Subsystem, code Code, id uint64, d, a, b, c int64, note *string) {
	if r == nil {
		return
	}
	rg := &r.rings[sub]
	size := uint64(len(rg.slots))
	ticket := rg.next.Add(1) - 1
	s := &rg.slots[ticket%size]
	seq := globalSeq.Add(1)
	// Seqlock publish: invalidate, fill, publish. A reader catching the
	// window sees seq 0 or a changed seq and discards its copy.
	s.seq.Store(0)
	s.nanos.Store(time.Since(epoch).Nanoseconds())
	s.code.Store(uint64(code) | (ticket/size)&0xff<<8 | uint64(d)&maxD<<16)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.id.Store(id)
	s.note.Store(note)
	s.seq.Store(seq)
}

// Event is one decoded ring entry.
type Event struct {
	// Seq is the global sequence number: sorting any mix of events by
	// Seq reconstructs the true interleaving across subsystems and
	// recorders.
	Seq uint64 `json:"seq"`
	// Nanos is monotonic nanoseconds since the recorder epoch
	// (EpochUnixNanos anchors it to wall time).
	Nanos     int64  `json:"nanos"`
	Subsystem string `json:"subsystem"`
	Event     string `json:"event"`
	// ID names the flush cycle or slow query the event belongs to; 0 for
	// a standalone event. Every event of one cycle, whichever goroutine
	// or subsystem emitted it, carries the same ID.
	ID   uint64           `json:"id,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
	// Note is the text of the rare events that carry one: a failed
	// cycle's error, a degraded entry's cause, a slow query's keys.
	Note string `json:"note,omitempty"`
}

// EventsOf snapshots one subsystem's ring, oldest first. The snapshot is
// consistent per event (no torn payloads) and a contiguous run of the
// ring's history; events recorded during the scan do not appear.
func (r *Recorder) EventsOf(sub Subsystem) []Event {
	if r == nil || int(sub) >= int(numSubsystems) {
		return nil
	}
	out := ringEvents(&r.rings[sub], nil, sub)
	sortEvents(out)
	return out
}

// Events snapshots every ring and merges them into one sequence-ordered
// timeline, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for sub := Subsystem(0); sub < numSubsystems; sub++ {
		out = ringEvents(&r.rings[sub], out, sub)
	}
	sortEvents(out)
	return out
}

// ringEvents appends the ring's snapshot to out: the tickets [lo, end),
// where end is the ticket count when the scan starts — nothing written
// during the scan is taken — and lo is raised past every ticket the ring
// may have recycled by the time it ends. Within that run only events
// still being published can be missing, each the newest its writer has
// recorded; so every writer's events are a prefix of what it emitted and
// the history is cut at one point, never holed — which is what lets
// FlushCycles promise whole cycles.
func ringEvents(rg *ring, out []Event, sub Subsystem) []Event {
	size := uint64(len(rg.slots))
	end := rg.next.Load()
	lo := uint64(0)
	if end > size {
		lo = end - size
	}
	base := len(out)
	tickets := make([]uint64, 0, end-lo)
	for t := lo; t < end; t++ {
		if ev, ok := readSlot(&rg.slots[t%size], sub, t/size); ok {
			out = append(out, ev)
			tickets = append(tickets, t)
		}
	}
	if now := rg.next.Load(); now > size && now-size > lo {
		// Tickets below now-size were being recycled while the scan ran:
		// some were read, some lost. Drop them all.
		drop := sort.Search(len(tickets), func(i int) bool { return tickets[i] >= now-size })
		out = append(out[:base], out[base+drop:]...)
	}
	return out
}

// readSlot performs the seqlock read: copy the payload between two
// agreeing loads of the sequence word. A bounded retry absorbs a writer
// racing the copy; a slot that stays in flux is skipped, not torn. The
// slot must hold the event of the given lap — an older one means the
// ticket is still being published, a newer one that it is gone.
//
//kfvet:seqlock reader
func readSlot(s *slot, sub Subsystem, lap uint64) (Event, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		seq := s.seq.Load()
		if seq == 0 {
			return Event{}, false // never written, or mid-publish
		}
		nanos := s.nanos.Load()
		word := s.code.Load()
		a, b, c := s.a.Load(), s.b.Load(), s.c.Load()
		id := s.id.Load()
		note := s.note.Load()
		if s.seq.Load() != seq {
			continue // overwritten mid-copy; retry
		}
		if word>>8&0xff != lap&0xff {
			return Event{}, false
		}
		ev := decodeEvent(Code(word), int64(word>>16), a, b, c)
		ev.Seq, ev.Nanos, ev.Subsystem, ev.ID = seq, nanos, sub.String(), id
		if note != nil {
			ev.Note = *note
		}
		return ev, true
	}
	return Event{}, false
}

// decodeEvent renders the argument words into the JSON-friendly form,
// labeling them per the code's schema.
func decodeEvent(code Code, d, a, b, c int64) Event {
	ev := Event{Event: code.String()}
	if code == EvQuerySlow {
		ev.Args = unpackSlowQuery(d, a, b, c)
		return ev
	}
	if int(code) < len(codeArgNames) {
		vals := [4]int64{a, b, c, d}
		for i, label := range codeArgNames[code] {
			if label == "" {
				continue
			}
			if ev.Args == nil {
				ev.Args = make(map[string]int64, 4)
			}
			ev.Args[label] = vals[i]
		}
	}
	return ev
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}

// TimelineEvent is an Event labeled with the recorder it came from, for
// timelines merged across attribute engines.
type TimelineEvent struct {
	Attr string `json:"attr"`
	Event
}

// MergeTimeline merges per-recorder event snapshots (keyed by attribute
// name) into one sequence-ordered timeline. The global sequence ticket
// makes the order exact, not heuristic.
func MergeTimeline(byAttr map[string][]Event) []TimelineEvent {
	var n int
	for _, evs := range byAttr {
		n += len(evs)
	}
	out := make([]TimelineEvent, 0, n)
	for attr, evs := range byAttr {
		for _, ev := range evs {
			out = append(out, TimelineEvent{Attr: attr, Event: ev})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
