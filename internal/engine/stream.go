package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// Stream is the owner of one ingested stream and of everything its
// attribute engines share: one ID space, one write-ahead log and one
// ingest path. It fronts 1..n engines — a keyword system alone, or the
// keyword, spatial and user engines of a multi-attribute store — and
// does, once per microblog, what each engine used to do for itself:
//
//   - it assigns the record's ID (and timestamp, when zero) and score;
//   - it group-commits the batch to the log, once, taking one claim per
//     engine that will admit the record;
//   - it hands the framed, numbered batch to every engine that indexes
//     the record;
//   - at open it runs the one replay, delivering each logged record to
//     every engine that indexes it, and coordinates reclaim.
//
// Before anything is logged every member must be writable, so a batch is
// taken by all the engines that index its records or by none. The log
// lives in the first member's disk directory, which therefore stays a
// complete tier on its own; the other members' tiers name its files
// through one shared registry (disk.LogSet) and hold no log file. The
// registry keeps the drained marks, which the first member's tier
// commits, and unlinks drained files no tier names; the first member's
// flight recorder carries the log's events and its Stats the log's.
// Engines join with Config.Stream, and Open starts the stream once all
// have; an engine built without one fronts itself.
type Stream struct {
	members []member
	logs    *disk.LogSet
	// budget is the sum of the members' memory budgets: what the log
	// covers, which sizes its files and bounds its replay.
	budget int64

	ids atomic.Uint64
	wal *wal.Log
	// scratch pools per-batch frames; nil under AllocPolicy=heap.
	scratch *sync.Pool

	// reclaimMu guards the reclaim target: the sealed file every member
	// lists its survivors of before the log picks another (reclaim).
	reclaimMu sync.Mutex
	target    uint32
	listed    []bool

	closeOnce sync.Once
	closeErr  error
}

// member is an engine as its stream sees it, whatever its key type.
type member interface {
	cfgOf() memberConfig
	// writable reports why the engine cannot take records (closed,
	// degraded), or nil.
	writable() error
	// begin opens the engine's share of one ingest batch.
	begin() share
	maxRecordID() uint64
	// The log's owner, the first member, also stamps records.
	stamp(mb *types.Microblog) float64
	attachLog(w *wal.Log)
	// Replay: wants says whether the engine indexes (or already holds) a
	// logged record, take admits it under one claim, endReplay hands the
	// last chunk to the policy.
	setRecovering(bool)
	wants(fr disk.FlushRecord) bool
	take(fr disk.FlushRecord)
	endReplay(maxID uint64)
	// Reclaim: listSurvivors lists the engine's survivors of a log file
	// under its flush gate, held by the caller; tryListSurvivors takes the
	// gate first, if it is free. Both report whether they are listed.
	listSurvivors(seq uint32) bool
	tryListSurvivors(seq uint32) bool
	// Shutdown in two halves around the log's close.
	quiesce()
	closeTier() error
}

// memberConfig is what the stream reads of a member's configuration.
type memberConfig struct {
	name    string
	dir     string
	budget  int64
	durable bool
	walOpt  wal.Options
	pooled  bool
	// recorder is the flight recorder that carries the log's events when
	// the member owns the log.
	recorder *blackbox.Recorder
}

// share is one engine's part of one ingest batch.
type share interface {
	// offer stages mb as the batch's frame k if the engine indexes it.
	offer(k int, mb *types.Microblog) bool
	// admit makes the staged records memory-resident under the frames'
	// claims and reports the batch; discard drops what was staged.
	admit(frames []disk.FlushRecord, offered int, start time.Time)
	discard()
}

// NewStream returns a stream with no member yet: engines join it
// through Config.Stream, then Open starts it.
func NewStream() *Stream { return &Stream{} }

// logsFor returns the registry of the log's files, the first caller's
// dir being the log's home.
func (s *Stream) logsFor(dir string) *disk.LogSet {
	if s.logs == nil {
		s.logs = disk.NewLogSet(dir)
	}
	return s.logs
}

// durable reports whether the stream keeps a log: its first member's
// word, the joining engine's when it is the first.
func (s *Stream) durable(own bool) bool {
	if len(s.members) == 0 {
		return own
	}
	return s.members[0].cfgOf().durable
}

// join enters a member whose tier is open, returning its slot; the first
// member's allocation policy is the stream's.
func (s *Stream) join(m member) (slot int) {
	c := m.cfgOf()
	if len(s.members) == 0 && c.pooled {
		s.scratch = &sync.Pool{New: func() any { return new([]disk.FlushRecord) }}
	}
	s.members = append(s.members, m)
	s.listed = append(s.listed, false)
	s.budget += c.budget
	return len(s.members) - 1
}

// checkDir refuses a member directory the stream cannot use: one
// holding a log of its own, when another member owns the log.
func (s *Stream) checkDir(dir string) error {
	if s.logs == nil {
		return nil
	}
	return disk.CheckLogFree(dir)
}

// Open starts the stream once every member has joined: the ID counter
// resumes past every member tier's high-water mark and, when the first
// member is durable, the log opens in its directory and replays into
// every member. On failure every member is closed.
func (s *Stream) Open() error {
	if len(s.members) == 0 {
		return fmt.Errorf("engine: a stream needs a member")
	}
	for _, m := range s.members {
		s.ids.Store(max(s.ids.Load(), m.maxRecordID()))
	}
	owner := s.members[0].cfgOf()
	if !owner.durable {
		return nil
	}
	wopt := owner.walOpt
	if wopt.MaxFileBytes <= 0 {
		// A log file never outgrows the memory it covers, so small
		// budgets rotate — and reclaim — as large ones do.
		wopt.MaxFileBytes = min(wal.DefaultMaxFileBytes, s.budget)
	}
	wopt.PooledBuffers = wopt.PooledBuffers || owner.pooled
	wopt.Recorder, wopt.Logs = owner.recorder, s.logs
	w, err := wal.Open(owner.dir, wopt)
	if err == nil {
		s.wal = w
		for _, m := range s.members {
			m.attachLog(w)
		}
		err = s.replay()
	}
	if err != nil {
		_ = s.Close() // the open error is the one to surface
		return err
	}
	return nil
}

// replay rebuilds every member's memory from the log's undrained files
// in one pass: each record goes to every member that indexes it, under a
// claim of its own — Replay takes one, the stream the others — and a
// record no member indexes gives its claim back. The ID counter resumes
// past the highest ID replayed. Then the tiers' registry of the log's
// files may unlink the drained files replay has shown no reference frame
// reaches.
func (s *Stream) replay() error {
	for _, m := range s.members {
		m.setRecovering(true)
	}
	defer func() {
		for _, m := range s.members {
			m.setRecovering(false)
		}
	}()
	var maxID uint64
	takers := make([]member, 0, len(s.members))
	err := s.wal.Replay(func(fr disk.FlushRecord) error {
		if err := failpoint.Eval(failpoint.RecoverReplayRecord); err != nil {
			return err
		}
		maxID = max(maxID, uint64(fr.MB.ID))
		takers = takers[:0]
		for _, m := range s.members {
			if m.wants(fr) {
				takers = append(takers, m)
			}
		}
		switch {
		case len(takers) == 0:
			s.wal.Release(fr.ReplaySeq, fr.LogSeq, 1)
		case len(takers) > 1:
			s.wal.Claim(fr.ReplaySeq, fr.LogSeq, len(takers)-1)
		}
		for _, m := range takers {
			m.take(fr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := failpoint.Eval(failpoint.RecoverAfterReplay); err != nil {
		return err
	}
	for _, m := range s.members {
		m.endReplay(maxID)
	}
	if maxID > s.ids.Load() {
		s.ids.Store(maxID)
	}
	// Replay has shown which drained files a reference frame reaches:
	// only now may the others be unlinked.
	s.logs.Track(s.wal.Holds)
	return nil
}

// IngestBatch digests a batch of microblogs into every member that
// indexes them, taking ownership of every record, in arrival order. IDs
// (and timestamps, when zero) and scores are assigned once per record;
// the records are group-committed to the log under one lock acquisition
// and one buffered write before any becomes visible. A record no member
// indexes is skipped and reported by a zero ID in the returned slice,
// which is aligned with mbs. The batch is all-or-nothing: every member
// must be writable before anything is logged, and nothing can fail
// after the append.
func (s *Stream) IngestBatch(mbs []*types.Microblog) ([]types.ID, error) {
	for _, m := range s.members {
		if err := m.writable(); err != nil {
			if len(s.members) > 1 {
				return nil, fmt.Errorf("%s attribute refused the batch, which no attribute ingested: %w", m.cfgOf().name, err)
			}
			return nil, err
		}
	}
	start := time.Now()
	ids := make([]types.ID, len(mbs))
	var frames []disk.FlushRecord
	if s.scratch != nil {
		pf := s.scratch.Get().(*[]disk.FlushRecord)
		frames = (*pf)[:0]
		defer func() {
			// The scratch holds record pointers; zero it so the pool never
			// pins records across batches.
			clear(frames)
			*pf = frames[:0]
			s.scratch.Put(pf)
		}()
	} else {
		frames = make([]disk.FlushRecord, 0, len(mbs))
	}
	var sh [3]share
	shares := sh[:0]
	for _, m := range s.members {
		shares = append(shares, m.begin())
	}
	owner := s.members[0]
	offered := 0
	for i, mb := range mbs {
		taken := 0
		for _, p := range shares {
			if p.offer(len(frames), mb) {
				taken++
			}
		}
		if taken == 0 {
			continue
		}
		offered += taken
		score := owner.stamp(mb)
		mb.ID = types.ID(s.ids.Add(1))
		ids[i] = mb.ID
		frames = append(frames, disk.FlushRecord{MB: mb, Score: score})
	}
	if s.wal != nil && len(frames) > 0 {
		if err := s.wal.AppendBatch(frames); err != nil {
			for _, p := range shares {
				p.discard()
			}
			return nil, fmt.Errorf("engine: wal append: %w", err)
		}
		// AppendBatch took one claim per frame, all on one file: take the
		// others before any member admits, so no release can drain it
		// under them.
		if extra := offered - len(frames); extra > 0 {
			s.wal.Claim(frames[0].ReplaySeq, frames[0].LogSeq, extra)
		}
	}
	// The crash windows these sites name: the batch durable and claimed
	// for every member, none or some of them holding it in memory. Replay
	// delivers it to each; the claims die with the process.
	_ = failpoint.Eval(failpoint.StreamAppended)
	for i, p := range shares {
		if i > 0 {
			_ = failpoint.Eval(failpoint.StreamAdmitted)
		}
		p.admit(frames, len(mbs), start)
	}
	return ids, nil
}

// reclaim runs at the end of member slot's flush cycle, under its flush
// gate. The reclaim target is the sealed file the log named last, until
// every member has listed its survivors of it or it has drained, and
// then the log's next candidate. Member slot lists its own survivors of
// it, then those of every member still to list whose flush gate is free:
// a member that runs no flush cycle of its own — one that indexes too
// few of the records coming in to fill its budget — must not hold the
// target back.
func (s *Stream) reclaim(slot int) {
	s.reclaimMu.Lock()
	defer s.reclaimMu.Unlock()
	if s.target == 0 || !s.wal.Replays(s.target) || !slices.Contains(s.listed, false) {
		var ok bool
		if s.target, ok = s.wal.ReclaimCandidate(s.budget); !ok {
			s.target = 0
			return
		}
		clear(s.listed)
	}
	if !s.listed[slot] {
		s.listed[slot] = s.members[slot].listSurvivors(s.target)
	}
	for i, m := range s.members {
		if i != slot && !s.listed[i] {
			s.listed[i] = m.tryListSurvivors(s.target)
		}
	}
}

// Close drains every member's flushing, seals the
// log — the next open replays its undrained files — and releases every
// member's disk tier. Only the first call does anything.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		for _, m := range s.members {
			m.quiesce()
		}
		if s.wal != nil {
			s.closeErr = s.wal.Close()
		}
		for _, m := range s.members {
			if err := m.closeTier(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
