// Package blackbox is the engine's always-on flight recorder: a set of
// fixed-size per-subsystem event rings that the hot paths stamp with a
// global atomic sequence number and monotonic nanoseconds. Recording is
// lock-free and allocation-free — a handful of atomic stores — so the
// recorder stays on in production and every incident ships with the
// events that preceded it (the rings are dumped to disk on degraded-mode
// entry and on panic).
//
// Writers claim a slot with an atomic ticket and publish it seqlock
// style: the slot's sequence word is zeroed, the payload fields are
// stored, then the final sequence is stored. Readers copy the payload
// between two loads of the sequence word and discard the copy when the
// loads disagree, so a reader can never observe a torn event; at worst a
// slot being overwritten during the snapshot is skipped.
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
	SubTuner

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
	SubTuner:   "tuner",
}

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
// fixes the meaning of the event's three argument words.
type Code uint8

const (
	EvIngestBatch Code = iota
	EvWALAppend
	EvWALSync
	EvWALRotate
	EvWALReclaim
	EvFlushPrepare
	EvFlushBuild
	EvFlushInstall
	EvFlushRelease
	EvFlushEnqueue
	EvFlushFallback
	EvCompactPass
	EvCacheEvict
	EvDiskRetry
	EvDegradedEnter
	EvDegradedClear
	EvTunerAdjust

	numCodes
)

var codeNames = [numCodes]string{
	EvIngestBatch:   "ingest_batch",
	EvWALAppend:     "wal_append",
	EvWALSync:       "wal_sync",
	EvWALRotate:     "wal_rotate",
	EvWALReclaim:    "wal_reclaim",
	EvFlushPrepare:  "flush_prepare",
	EvFlushBuild:    "flush_build",
	EvFlushInstall:  "flush_install",
	EvFlushRelease:  "flush_release",
	EvFlushEnqueue:  "flush_enqueue",
	EvFlushFallback: "flush_fallback",
	EvCompactPass:   "compact_pass",
	EvCacheEvict:    "cache_evict",
	EvDiskRetry:     "disk_retry",
	EvDegradedEnter: "degraded_enter",
	EvDegradedClear: "degraded_clear",
	EvTunerAdjust:   "tuner_adjust",
}

// codeArgNames labels each code's argument words for the JSON timeline;
// an empty label marks an unused word.
var codeArgNames = [numCodes][3]string{
	EvIngestBatch:   {"records", "skipped", "nanos"},
	EvWALAppend:     {"frames", "bytes", "nanos"},
	EvWALSync:       {"frames", "file_bytes", "nanos"},
	EvWALRotate:     {"file_seq", "rotated_bytes", "nanos"},
	EvWALReclaim:    {"file_seq", "survivors", "nanos"},
	EvFlushPrepare:  {"target_bytes", "freed_bytes", "nanos"},
	EvFlushBuild:    {"records", "bytes", "nanos"},
	EvFlushInstall:  {"records", "bytes", "nanos"},
	EvFlushRelease:  {"records", "", "nanos"},
	EvFlushEnqueue:  {"records", "queue_depth", ""},
	EvFlushFallback: {"records", "", ""},
	EvCompactPass:   {"level", "segments_in", "nanos"},
	EvCacheEvict:    {"evicted", "resident_bytes", ""},
	EvDiskRetry:     {"retries", "ordinal", ""},
	EvDegradedEnter: {"", "", ""},
	EvDegradedClear: {"", "", ""},
	EvTunerAdjust:   {"flush_frac_bp", "watermark_bytes", "cache_bytes"},
}

// String returns the code's wire name.
func (c Code) String() string {
	if int(c) >= len(codeNames) {
		return "unknown"
	}
	return codeNames[c]
}

// DefaultRingSize is the per-subsystem slot count when the caller does
// not choose one: 1024 events x 8 subsystems x 56 bytes ≈ 400 KiB per
// recorder, minutes of history at typical production rates.
const DefaultRingSize = 1024

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

// NextSeq claims one sequence number from the global ticket. Exposed for
// sibling recorders (the slow-query log) whose entries interleave with
// ring events on the merged timeline.
//
//kfvet:noalloc
func NextSeq() uint64 { return globalSeq.Add(1) }

// slot is one fixed-size event: a seqlock word plus five payload words.
// All fields are atomics so concurrent writers racing a wrapped ring and
// concurrent readers stay within the memory model; torn payloads are
// rejected by the seq double-check, never observed.
type slot struct {
	seq   atomic.Uint64
	nanos atomic.Int64
	code  atomic.Int64
	a     atomic.Int64
	b     atomic.Int64
	c     atomic.Int64
}

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

// New builds a recorder with the given per-subsystem ring size (slots);
// size <= 0 selects DefaultRingSize.
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Recorder{}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
	}
	return r
}

// Record stamps one event into sub's ring: global sequence, monotonic
// nanos, and three argument words whose meaning the code fixes. It is
// the hot-path entry point — lock-free, allocation-free, nil-safe.
//
//kfvet:noalloc
//kfvet:seqlock writer
func (r *Recorder) Record(sub Subsystem, code Code, a, b, c int64) {
	if r == nil {
		return
	}
	rg := &r.rings[sub]
	ticket := rg.next.Add(1) - 1
	s := &rg.slots[ticket%uint64(len(rg.slots))]
	seq := globalSeq.Add(1)
	// Seqlock publish: invalidate, fill, publish. A reader catching the
	// window sees seq 0 or a changed seq and discards its copy.
	s.seq.Store(0)
	s.nanos.Store(time.Since(epoch).Nanoseconds())
	s.code.Store(int64(code))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
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
	Nanos     int64            `json:"nanos"`
	Subsystem string           `json:"subsystem"`
	Event     string           `json:"event"`
	Args      map[string]int64 `json:"args,omitempty"`
}

// EventsOf snapshots one subsystem's ring, oldest first. The snapshot is
// consistent per event (no torn payloads) but not across the ring:
// events recorded during the scan may or may not appear.
func (r *Recorder) EventsOf(sub Subsystem) []Event {
	if r == nil || int(sub) >= int(numSubsystems) {
		return nil
	}
	rg := &r.rings[sub]
	out := make([]Event, 0, len(rg.slots))
	for i := range rg.slots {
		if ev, ok := readSlot(&rg.slots[i], sub); ok {
			out = append(out, ev)
		}
	}
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
		rg := &r.rings[sub]
		for i := range rg.slots {
			if ev, ok := readSlot(&rg.slots[i], sub); ok {
				out = append(out, ev)
			}
		}
	}
	sortEvents(out)
	return out
}

// readSlot performs the seqlock read: copy the payload between two
// agreeing loads of the sequence word. A bounded retry absorbs a writer
// racing the copy; a slot that stays in flux is skipped, not torn.
//
//kfvet:seqlock reader
func readSlot(s *slot, sub Subsystem) (Event, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		seq := s.seq.Load()
		if seq == 0 {
			return Event{}, false // never written, or mid-publish
		}
		nanos := s.nanos.Load()
		code := Code(s.code.Load())
		a, b, c := s.a.Load(), s.b.Load(), s.c.Load()
		if s.seq.Load() != seq {
			continue // overwritten mid-copy; retry
		}
		return decodeEvent(seq, nanos, sub, code, a, b, c), true
	}
	return Event{}, false
}

// decodeEvent renders the fixed words into the JSON-friendly form,
// labeling argument words per the code's schema.
func decodeEvent(seq uint64, nanos int64, sub Subsystem, code Code, a, b, c int64) Event {
	ev := Event{Seq: seq, Nanos: nanos, Subsystem: sub.String(), Event: code.String()}
	if int(code) < len(codeArgNames) {
		labels := codeArgNames[code]
		vals := [3]int64{a, b, c}
		for i, label := range labels {
			if label == "" {
				continue
			}
			if ev.Args == nil {
				ev.Args = make(map[string]int64, 3)
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
