// Package wal is the write-ahead log of an engine's memory contents and,
// on a durable store, its record store: the log's files are the files
// the disk tier's directories address, so a record is written once.
//
// The paper's system model keeps recent microblogs only in memory until
// a flush moves them to disk; a crash would lose everything since the
// last flush. A production store needs better: every ingested record is
// appended to the log before it is acknowledged, and on restart the log
// is replayed to rebuild memory. A flush then has nothing left to write
// but a directory over the frames the log already holds (disk.Tier with
// Config.Logged).
//
// Files live in one directory — on a durable store, the tier's own — as
// wal-XXXXXXXX.kfw, XXXXXXXX the file sequence, 1 and up. The newest is
// active, the others sealed.
//
// The file format is the disk package's (disk/logfile.go): a header
// naming the version, then frames — u32 payload length | u32 CRC32C |
// one record, or a reference frame — and, once the file is sealed, a
// frame index over its record frames. The log seals the active file and
// starts the next when it reaches Options.MaxFileBytes, and whenever the
// owner asks (Seal: a flush seals the file its victims' frames may sit
// in, because a directory names only sealed files). Sealing writes the
// frame index and fsyncs; Seal does that off the log's lock, so
// ingestion never waits on it. An older file version is
// disk.ErrNeedsUpgrade (see disk.Upgrade), any other ErrCorrupt. A torn final
// frame — the expected crash artifact — is detected by the CRC/length
// check and replay stops there; corruption in the middle of the log is
// reported as an error.
//
// # Claims
//
// A record's bytes never move: the frame AppendBatch wrote is where
// directories post it and where replay reads it. Its replay duty may
// move, so the log keeps two counts per file:
//
//   - covers: the records whose replay goes through the file, because it
//     frames them or a reference frame of it lists them, and which have
//     not yet left memory for a durably installed segment;
//   - holds: the records memory holds (and the owner pins for flushes in
//     flight) whose bytes the file frames.
//
// AppendBatch raises both on the active file, Replay raises covers on
// the file it reads and holds on the one framing each delivered record;
// FlushRecord.ReplaySeq and LogSeq name the two. The holder lowers both
// with Release — the engine does so in its flush pipeline's release
// stage, after the segment carrying the record is installed. The
// invariants everything else hangs on:
//
//	a file leaves the replay set only sealed and at zero covers, and a
//	cover comes down only after the record is durable somewhere else —
//	posted by an installed segment, or listed by a reference frame that
//	has been fsynced;
//
//	a file out of the replay set stays on disk while anything holds it,
//	or a reference frame of a file still replayed lists it.
//
// A file that leaves the replay set is drained: replay will not scan it
// again. With Options.Logs set the log reports it to the tiers' registry
// of its files (disk.LogSet.Drain), whose home tier's next manifest
// commit carries the drained mark, and reports when it stops holding it
// (Holds, disk.LogSet.Release); the registry keeps the file for as long
// as a directory names it or the log holds it. A log without one unlinks
// a drained file itself once nothing holds it. A file with no frames at
// all is unlinked either way.
//
// A flushing policy that evicts by usefulness rather than by age never
// drains an old file on its own: a few long-lived records pin it. So the
// owner asks ReclaimCandidate which sealed file to retire and hands
// Reference the file's memory-resident survivors. Reference appends one
// reference frame listing where each survivor's bytes are to the active
// file, fsyncs it (whatever Options.SyncEvery says), and moves their
// covers there, which lets the zero-covers rule drain the source — no
// record is written twice, and the old file is never read. Crash
// windows: before the fsync the source still covers every survivor and
// the reference frame is at worst a torn tail; between the fsync and the
// drain both files deliver the survivors and replay keeps one wrapper per
// ID; the drain takes effect with one manifest commit, after which
// replay reads each survivor through the reference, with one pread. The
// file holding the highest record ID may drain like any other: the
// tier's manifest keeps the record-ID high-water mark of every installed
// segment, and a referenced record is delivered by an undrained file.
package wal

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// walCommitLabels attributes the group-commit slow path (fsync,
// rotation) to the WAL in CPU profiles. The per-append fast path stays
// unlabeled: labeling allocates, and appends are the 0-alloc hot path.
var walCommitLabels = pprof.Labels("kflushing", "wal-group-commit")

const (
	fileVersion = disk.LogVersion
	headerSize  = disk.LogHeaderSize
)

// ErrCorrupt reports log corruption before the final record.
var ErrCorrupt = errors.New("wal: corrupt log")

// encodeBufs recycles AppendBatch encode buffers across calls when
// Options.PooledBuffers is set. Buffers are only handed to File.Write,
// which does not retain them.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Options tunes a Log.
type Options struct {
	// MaxFileBytes rotates the active file when it exceeds this size;
	// 0 selects DefaultMaxFileBytes.
	MaxFileBytes int64
	// SyncEvery fsyncs after this many appends; 0 relies on OS
	// buffering (fsync still happens when a file is sealed).
	SyncEvery int
	// PooledBuffers reuses the per-batch encode buffer across
	// AppendBatch calls via a sync.Pool instead of allocating each time
	// (AllocPolicy=pooled).
	PooledBuffers bool
	// Recorder, when non-nil, receives append/sync/rotate events on the
	// engine's flight recorder. Recording is allocation-free.
	Recorder *blackbox.Recorder
	// Logs, when set, is the tiers' registry of the log's files: Open
	// does not scan the files it lists drained — they are the tiers'
	// record files now, read at replay only through the reference frames
	// that list them — and the log reports to it, in place of unlinking,
	// every sealed file with frames whose last cover went and every
	// drained file it stops holding (Holds turns false).
	Logs *disk.LogSet
}

// DefaultMaxFileBytes is the rotation size when Options leaves it zero.
const DefaultMaxFileBytes = 16 << 20

// logFile is one file of the log as the claims table sees it: a file
// the log replays, or a drained one it still holds.
type logFile struct {
	seq uint32
	// bytes is the file's size, what a replay scans; refBytes the size of
	// the frames its reference frames list in older files, what a replay
	// reads beside.
	bytes, refBytes int64
	// frames counts the records framed in the file and refs those its
	// reference frames list: what its replay delivers. covers and holds
	// are its two claim counts (see the package comment): covers/(frames
	// + refs) is the share of its deliveries still needed.
	frames, refs  int64
	covers, holds int64
	// reach lists, ascending, the files its reference frames list
	// records of: they stay on disk while this file replays.
	reach []uint32
	// pinned marks a file found by Open and not yet replayed: its claims
	// are unknown, so it must not be reclaimed.
	pinned bool
	// sealed marks a file that is complete: frame index written and
	// fsynced. Only a sealed file may be named by a directory, referenced,
	// or drained.
	sealed bool
	// drained marks a file out of the replay set, in the table only while
	// something holds it.
	drained bool
	// referenced marks a file whose survivors Reference listed elsewhere;
	// what is left of covers are records in flight to the tier.
	referenced bool
	// survivors and reclaimNanos describe that reclaim for the
	// wal_reclaim event.
	survivors    int64
	reclaimNanos int64
	// offsets holds the start of every record frame while the file is
	// active: its frame index, written when it is sealed.
	offsets []uint32
}

// claim adds n covers and n holds of a record framed in f.
func (f *logFile) claim(n int64) {
	f.covers += n
	f.holds += n
}

// deliveries is how many records the file's replay delivers.
func (f *logFile) deliveries() int64 { return f.frames + f.refs }

// replayBytes is how much a replay of the file reads.
func (f *logFile) replayBytes() int64 { return f.bytes + f.refBytes }

// addReach records that the file's reference frames list records of the
// files seqs names.
func (f *logFile) addReach(seqs ...uint32) {
	for _, seq := range seqs {
		if i, found := slices.BinarySearch(f.reach, seq); !found {
			f.reach = slices.Insert(f.reach, i, seq)
		}
	}
}

// pendingSeal is a file taken out of service whose frame index is not
// yet written and fsynced: its handle is still open for that.
type pendingSeal struct {
	f  *os.File
	lf *logFile
}

// Stats is a point-in-time view of the log's footprint and reclaim work.
type Stats struct {
	// Bytes is what a recovery reads: the files the log still replays —
	// the sealed undrained files and the active one — and the frames
	// their reference frames list, ReferencedBytes of it. Files counts
	// the files.
	Bytes           int64
	ReferencedBytes int64
	Files           int
	// LiveRecords is the sum of all covers: the records whose replay goes
	// through the log.
	LiveRecords int64
	// ReferencedRecords and ReclaimedBytes count, since Open, the
	// survivors Reference listed and the bytes of the files drained.
	ReferencedRecords int64
	ReclaimedBytes    int64
}

// Log is an append-only write-ahead log. Append, AppendBatch, Seal,
// Claim, Release, Reference, Holds and Stats are safe for concurrent use;
// Replay runs once, before the first append.
type Log struct {
	dir string
	opt Options

	mu sync.Mutex
	f  *os.File
	// files is the claims table, oldest first: the sealed files, then
	// active, with the drained files still held among them.
	files      []*logFile
	active     *logFile // nil once the log is closed or sealed by a fault
	seq        uint32   // highest file sequence handed out
	sinceSync  int
	referenced int64
	// sealing holds the files taken out of service and not yet sealed.
	sealing []*pendingSeal

	// rotMu serializes rotations, which create the next file outside mu;
	// sealMu serializes sealFiles: one goroutine writes and fsyncs the
	// pending frame indexes, outside mu.
	rotMu  sync.Mutex
	sealMu sync.Mutex

	reclaimed atomic.Int64
}

// Open creates or reopens a log directory.
func Open(dir string, opt Options) (*Log, error) {
	if opt.MaxFileBytes <= 0 {
		opt.MaxFileBytes = DefaultMaxFileBytes
	}
	// Frame offsets are u32s.
	opt.MaxFileBytes = min(opt.MaxFileBytes, 1<<31)
	if err := failpoint.Eval(failpoint.WALOpenMkdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}
	// Whatever a previous process left is pinned until Replay has counted
	// its claims; the new active file continues after the newest of them.
	files, err := logFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range files {
		seq, ok := disk.ParseLogName(p)
		if !ok {
			continue
		}
		l.seq = max(l.seq, seq)
		if opt.Logs != nil && opt.Logs.Drained(seq) {
			continue
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, &logFile{seq: seq, bytes: st.Size(), pinned: true})
	}
	f, err := l.createFile(l.seq + 1)
	if err != nil {
		return nil, err
	}
	l.startLocked(f, l.seq+1)
	return l, nil
}

// path returns the file holding sequence seq.
func (l *Log) path(seq uint32) string { return filepath.Join(l.dir, disk.LogName(seq)) }

// logFiles returns dir's log files oldest-first.
func logFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

// createFile creates log file seq with its header, ready to become the
// active file. It touches nothing the log's mutex guards.
func (l *Log) createFile(seq uint32) (*os.File, error) {
	if err := failpoint.Eval(failpoint.WALRotateSeal); err != nil {
		return nil, err
	}
	if err := failpoint.Eval(failpoint.WALRotateCreate); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	whdr, err := failpoint.EvalWrite(failpoint.WALRotateHeader, disk.AppendLogHeader(nil))
	if _, werr := f.Write(whdr); werr != nil {
		err = werr
	}
	if err != nil {
		// The write error is the one to surface, not the cleanup's; the
		// name is freed for the next attempt (replay removes a file left
		// with no frame anyway).
		_ = f.Close()
		_ = os.Remove(l.path(seq))
		return nil, err
	}
	return f, nil
}

// startLocked makes f, just created as file seq, the active file.
// Callers must hold l.mu (or own the log exclusively).
func (l *Log) startLocked(f *os.File, seq uint32) {
	l.f, l.seq = f, seq
	l.active = &logFile{seq: seq, bytes: headerSize}
	l.files = append(l.files, l.active)
	l.sinceSync = 0
}

// rotate takes the active file out of service, to be sealed, and makes
// the next file active — when due says so of the active file. The next
// file is created before the swap, outside the log's mutex, so appends
// wait for the swap alone; rotMu serializes rotations, so files become
// active in sequence order. A failure leaves the active file in service.
func (l *Log) rotate(due func(active *logFile) bool) error {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	start := time.Now()
	l.mu.Lock()
	cur, seq := l.active, l.seq+1
	ok := cur != nil && due(cur)
	l.mu.Unlock()
	if !ok {
		return nil
	}
	f, err := l.createFile(seq)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active != cur {
		// A failed rollback sealed the log meanwhile: it stays closed.
		_ = f.Close()
		_ = os.Remove(l.path(seq))
		return errors.New("wal: closed")
	}
	l.sealing = append(l.sealing, &pendingSeal{f: l.f, lf: cur})
	l.startLocked(f, seq)
	l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALRotate,
		int64(seq), cur.bytes, time.Since(start).Nanoseconds())
	return nil
}

// Append durably records one ingested microblog: a group commit of one.
func (l *Log) Append(fr disk.FlushRecord) error {
	return l.AppendBatch([]disk.FlushRecord{fr})
}

// AppendBatch group-commits a batch of ingested microblogs: every frame
// is encoded outside the lock into one contiguous buffer, then the whole
// batch is written under a single lock acquisition with a single Write
// call — one syscall instead of two per record, which is what lets
// batched ingestion keep up with high-rate streams.
//
// On success every frs[i].LogSeq and ReplaySeq name the file that now
// holds the frames, frs[i].LogOrd the frame's ordinal in it, and that
// file carries one more cover and hold per frame: the caller owns the
// claims and gives them back with Release. A caller that never does (a
// probe, a tool) simply keeps every file. A batch that fills the file
// seals it on the way out.
func (l *Log) AppendBatch(frs []disk.FlushRecord) error {
	if len(frs) == 0 {
		return nil
	}
	start := time.Now()
	var buf []byte
	if l.opt.PooledBuffers {
		pb := encodeBufs.Get().(*[]byte)
		defer func() {
			*pb = buf[:0]
			encodeBufs.Put(pb)
		}()
		buf = (*pb)[:0]
		if cap(buf) < 96*len(frs) {
			buf = make([]byte, 0, 96*len(frs))
		}
	} else {
		buf = make([]byte, 0, 96*len(frs))
	}
	buf = disk.AppendFrames(buf, frs)
	if err := failpoint.Eval(failpoint.WALAppend); err != nil {
		return err
	}
	l.mu.Lock()
	full, err := l.appendLocked(frs, buf, start)
	l.mu.Unlock()
	if full != nil {
		// Start the next file and seal this one, off the lock.
		pprof.Do(context.Background(), walCommitLabels, func(context.Context) {
			serr := l.rotate(func(active *logFile) bool { return active == full })
			if serr == nil {
				serr = l.sealFiles()
			}
			if err == nil {
				err = serr
			}
		})
	}
	return err
}

// writeLocked writes buf to the active file, rolling a failed or partial
// write back, and returns the file. Callers must hold l.mu.
func (l *Log) writeLocked(buf []byte) (*logFile, error) {
	if l.f == nil {
		return nil, errors.New("wal: closed")
	}
	// A torn-write failpoint shortens wbuf: the partial frame really
	// lands in the file — the exact artifact a crash mid-write leaves.
	// Any failed or partial append is rolled back to the pre-write
	// offset; otherwise the next successful append would bury a torn
	// frame mid-file, which replay correctly refuses to tolerate.
	wbuf, fperr := failpoint.EvalWrite(failpoint.WALAppendWrite, buf)
	if n, err := l.f.Write(wbuf); err != nil {
		if n > 0 {
			l.rollbackTailLocked()
		}
		return nil, err
	}
	if fperr != nil {
		l.rollbackTailLocked()
		return nil, fperr
	}
	return l.active, nil
}

// appendLocked writes one encoded batch to the active file and returns
// the file when the batch filled it. Callers must hold l.mu.
func (l *Log) appendLocked(frs []disk.FlushRecord, buf []byte, start time.Time) (full *logFile, err error) {
	af, err := l.writeLocked(buf)
	if err != nil {
		return nil, err
	}
	// The frames are in the file: index them, even when the failpoint
	// below fails the append, since they stay there.
	for pos := 0; pos < len(buf); pos += disk.FrameHeaderSize + int(binary.LittleEndian.Uint32(buf[pos:])) {
		af.offsets = append(af.offsets, uint32(af.bytes)+uint32(pos))
	}
	if err := failpoint.Eval(failpoint.WALAppendAfterWrite); err != nil {
		// The frames are fully written and valid: leave them. Replay
		// may resurrect the unacknowledged batch (at-least-once), which
		// recovery deduplicates; truncating valid frames would risk the
		// opposite — dropping data a concurrent reader saw acked.
		af.bytes += int64(len(buf))
		af.frames += int64(len(frs))
		return nil, err
	}
	af.bytes += int64(len(buf))
	for i := range frs {
		frs[i].LogSeq, frs[i].LogOrd, frs[i].ReplaySeq = af.seq, uint32(af.frames), af.seq
		af.frames++
	}
	af.claim(int64(len(frs)))
	l.sinceSync += len(frs)
	l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALAppend,
		int64(len(frs)), int64(len(buf)), time.Since(start).Nanoseconds())
	if l.opt.SyncEvery > 0 && l.sinceSync >= l.opt.SyncEvery {
		// The fsync is the group-commit slow path: label it so CPU
		// profiles attribute the stall to the WAL, and record the event.
		frames := l.sinceSync
		var serr error
		pprof.Do(context.Background(), walCommitLabels, func(context.Context) {
			if serr = failpoint.Eval(failpoint.WALSync); serr != nil {
				return
			}
			syncStart := time.Now()
			if serr = l.f.Sync(); serr != nil {
				return
			}
			l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALSync,
				int64(frames), af.bytes, time.Since(syncStart).Nanoseconds())
		})
		if serr != nil {
			return nil, serr
		}
		l.sinceSync = 0
	}
	if af.bytes < l.opt.MaxFileBytes {
		return nil, nil
	}
	return af, nil
}

// rollbackTailLocked truncates the active file back to the last
// committed offset after a failed or partial append, so the garbage
// tail is never buried under later appends. If even the truncate fails
// the file is sealed: appends then fail fast ("wal: closed") instead of
// silently corrupting the log.
func (l *Log) rollbackTailLocked() {
	if l.f == nil {
		return
	}
	err := failpoint.Eval(failpoint.WALRollbackTruncate)
	if err == nil {
		err = l.f.Truncate(l.active.bytes)
	}
	if err != nil {
		slog.Error("wal: cannot roll back partial append; sealing active file",
			"offset", l.active.bytes, "err", err)
		_ = l.f.Close() // the Truncate error is the one that matters
		l.f, l.active = nil, nil
	}
}

// CheckAppendable verifies the log can still accept appends: the active
// file must be open and syncable. It is the WAL half of the /readyz
// readiness probe — a full disk or revoked file handle fails the sync.
func (l *Log) CheckAppendable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: closed")
	}
	if err := failpoint.Eval(failpoint.WALReadySync); err != nil {
		return fmt.Errorf("wal: active file not syncable: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: active file not syncable: %w", err)
	}
	return nil
}

// Sync forces the active file to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := failpoint.Eval(failpoint.WALSync); err != nil {
		return err
	}
	return l.f.Sync()
}

// syncActive fsyncs the active file, covering at least every frame
// written before the call, without holding mu: appends carry on
// meanwhile. Holding sealMu keeps the handle from being sealed and
// closed under the fsync should a rotation take the file out of service.
func (l *Log) syncActive() error {
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := failpoint.Eval(failpoint.WALSync); err != nil {
		return err
	}
	return f.Sync()
}

// Seal makes every frame appended so far addressable: the active file,
// unless it holds no record frame, is taken out of service — a new file
// takes the appends from here on — and every file out of service is
// sealed: its frame index written, then fsynced. Only the swap holds the
// log's lock; the writes and fsyncs run on the caller, so ingestion does
// not wait on them. A flush calls it before it stages a directory naming
// its victims' frames.
func (l *Log) Seal() error {
	err := l.rotate(func(active *logFile) bool { return active.frames > 0 })
	if serr := l.sealFiles(); err == nil {
		err = serr
	}
	return err
}

// sealFiles seals every file out of service, oldest first. A file that
// fails stays pending, with those after it, for the next call.
func (l *Log) sealFiles() error {
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	l.mu.Lock()
	todo := l.sealing
	l.sealing = nil
	l.mu.Unlock()
	for i, ps := range todo {
		retry, err := l.seal(ps)
		if err == nil {
			continue
		}
		rest := todo[i+1:]
		if retry {
			rest = todo[i:]
		}
		l.mu.Lock()
		l.sealing = append(append([]*pendingSeal(nil), rest...), l.sealing...)
		l.mu.Unlock()
		return fmt.Errorf("wal: seal %s: %w", disk.LogName(ps.lf.seq), err)
	}
	return nil
}

// seal writes a pending file's frame index, fsyncs and closes it: from
// here on a directory may name the file, and once nothing covers it, it
// drains. A file a crash left unsealed comes without a handle and is
// opened here. On failure the file is cut back to its frames and retry
// says so; when even that fails the handle is given up and the file
// stays unsealed until a replay seals it.
func (l *Log) seal(ps *pendingSeal) (retry bool, err error) {
	start := time.Now()
	lf := ps.lf
	l.mu.Lock()
	end, offsets := lf.bytes, lf.offsets
	l.mu.Unlock()
	idx := disk.AppendFrameIndex(nil, offsets)
	// The crash window this site names: the file out of service, its
	// index not yet durable. No directory names it; replay seals it.
	err = failpoint.Eval(failpoint.WALSealSync)
	if err == nil && ps.f == nil {
		ps.f, err = os.OpenFile(l.path(lf.seq), os.O_WRONLY|os.O_APPEND, 0)
	}
	if ps.f == nil {
		return false, err
	}
	if err == nil {
		_, err = ps.f.Write(idx)
	}
	if err == nil {
		err = ps.f.Sync()
	}
	if err != nil {
		if terr := ps.f.Truncate(end); terr != nil {
			slog.Error("wal: cannot cut a failed frame index away; the file stays unsealed",
				"file_seq", lf.seq, "err", terr)
			_ = ps.f.Close() // the write error is the one that matters
			return false, err
		}
		return true, err
	}
	if cerr := ps.f.Close(); cerr != nil {
		// Written and fsynced: the file is sealed whatever Close says.
		slog.Warn("wal: close of a sealed file failed", "file_seq", lf.seq, "err", cerr)
	}
	l.mu.Lock()
	lf.sealed = true
	lf.bytes += int64(len(idx))
	lf.offsets = nil
	drained, released := l.sweepLocked()
	l.mu.Unlock()
	l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALSync,
		int64(len(offsets)), end, time.Since(start).Nanoseconds())
	l.retire(drained, released)
	return false, nil
}

// refFrame is one reference frame as replay reads it: the records it
// lists, after the file's first at records.
type refFrame struct {
	at   int
	refs []disk.LogRef
}

// parsedFile is one log file as replay reads it.
type parsedFile struct {
	recs    []disk.FlushRecord
	refs    []refFrame
	offsets []uint32 // where each record's frame starts
	valid   int64    // length of the valid prefix, a frame index included
	indexed bool     // the prefix ends with a frame index over its frames
	// refBytes is the size of its reference frames, headers included.
	refBytes int64
}

// walk hands the file's frames to rec — with the record's ordinal — and
// ref in append order.
func (p *parsedFile) walk(rec func(int, disk.FlushRecord) error, ref func([]disk.LogRef) error) error {
	next := 0 // the next reference frame
	refsUpTo := func(at int) error {
		for ; next < len(p.refs) && p.refs[next].at <= at; next++ {
			if err := ref(p.refs[next].refs); err != nil {
				return err
			}
		}
		return nil
	}
	for i, fr := range p.recs {
		if err := refsUpTo(i); err != nil {
			return err
		}
		if err := rec(i, fr); err != nil {
			return err
		}
	}
	return refsUpTo(len(p.recs))
}

// parseFile reads one log file as replay does. Truncation at EOF is
// always tolerated; complete but invalid frames — and a frame index that
// does not match the frames before it — only when lastFile is set. A tolerated torn tail
// yields the valid prefix and nil; the caller is expected to truncate the
// file to it. A file of an older version is disk.ErrNeedsUpgrade, of an
// unknown one ErrCorrupt: its frames are not read.
func parseFile(path string, lastFile bool) (parsedFile, error) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < headerSize {
		return parsedFile{}, err // a file torn before its header was complete is empty
	}
	name := filepath.Base(path)
	if string(b[:4]) != disk.LogMagic {
		return parsedFile{}, fmt.Errorf("%w: bad header in %s", ErrCorrupt, name)
	}
	v := binary.LittleEndian.Uint16(b[4:])
	if err := disk.CheckLogVersion(name, v); errors.Is(err, disk.ErrNeedsUpgrade) {
		return parsedFile{}, err
	} else if err != nil {
		return parsedFile{}, fmt.Errorf("%w: unknown version %d in %s", ErrCorrupt, v, name)
	}
	own, _ := disk.ParseLogName(name)
	var p parsedFile
	pos := headerSize
	// stop ends the parse at pos: a torn tail when tolerable, else
	// corruption.
	stop := func(what string, tolerable bool) (parsedFile, error) {
		p.valid = int64(pos)
		if !tolerable {
			return p, fmt.Errorf("%w: %s in %s", ErrCorrupt, what, name)
		}
		slog.Warn("wal: tolerating "+what+" at end of file", "file", name, "offset", pos)
		return p, nil
	}
	for pos < len(b) {
		if pos+disk.FrameHeaderSize > len(b) {
			return stop("torn frame header", true)
		}
		if n := binary.LittleEndian.Uint32(b[pos:]); uint64(n) > uint64(len(b)-pos-disk.FrameHeaderSize) {
			return stop("torn payload", true)
		}
		payload, ok := disk.CheckFrame(b[pos:])
		if !ok {
			return stop("bad checksum", lastFile)
		}
		end := pos + disk.FrameHeaderSize + len(payload)
		switch {
		case disk.IsFrameIndex(payload):
			offsets, ok := disk.DecodeFrameIndex(payload)
			if !ok || !slices.Equal(offsets, p.offsets) || end != len(b) {
				return stop("frame index not matching its file", lastFile)
			}
			p.indexed = true
			p.valid = int64(end)
			return p, nil
		case disk.IsReferences(payload):
			refs, ok := disk.DecodeReferences(payload, own)
			if !ok {
				return stop("undecodable reference frame", lastFile)
			}
			p.refs = append(p.refs, refFrame{at: len(p.recs), refs: refs})
			p.refBytes += int64(end - pos)
		default:
			fr, used, err := disk.DecodeRecord(payload)
			if err != nil || used != len(payload) {
				return stop("undecodable frame", lastFile)
			}
			p.recs = append(p.recs, fr)
			p.offsets = append(p.offsets, uint32(pos))
		}
		pos = end
	}
	p.valid = int64(pos)
	return p, nil
}

// Replay streams every surviving record to fn: the log files in sequence
// order, each file's frames in append order, a reference frame
// delivering the records it lists where it stands — each read with one
// pread from the file framing it, drained or not. LogSeq and LogOrd name
// the frame holding a delivered record, ReplaySeq the file delivering
// it. Files Options.Logs lists drained were never opened, so they
// deliver nothing by themselves: their records are in installed
// segments, or listed by a reference frame of a newer file. Replay does not restore arrival order: a referenced record
// is delivered after records that arrived later, and, in the window
// between a reference frame's fsync and its source's drain, twice — the
// caller keeps one. Each delivered record is a cover on the file
// delivering it and a hold on the one framing it, owned by fn's side:
// the engine releases the ones it does not keep (a duplicate, a record
// without keys) and the ones it later flushes; a caller that releases
// nothing keeps every file. When a file has been replayed its Open-time
// pin is dropped, so a file nothing covers — a header-only leftover, or
// one whose records fn flushed while later files replayed — drains on
// the spot.
//
// Tolerance matches what crashes actually produce: a truncated frame at
// the END of any file is accepted (a crash tears the tail of whichever
// file was active, or was being sealed). A failed checksum inside a
// complete frame is tolerated only in the newest file; anywhere else it
// is real corruption and returns ErrCorrupt, as is a reference to a
// frame that is not there.
//
// Tolerated torn tails are physically truncated away (with a logged
// warning), and a file the crash left unsealed is sealed — both before
// its frames reach fn, since a flush those frames set off may name the
// file. That is load-bearing, not cosmetic: a torn tail left in place
// stops being "the end of the file" once the log grows or rotates, and
// the next recovery would refuse it as mid-log corruption. Neither ever
// touches a file a directory names: a directory names only files sealed
// and fsynced before it was written.
func (l *Log) Replay(fn func(disk.FlushRecord) error) error {
	l.mu.Lock()
	files := make([]*logFile, 0, len(l.files))
	for _, f := range l.files {
		if f != l.active {
			files = append(files, f)
		}
	}
	l.mu.Unlock()
	readers := frameReaders{}
	defer readers.close()
	// The file that may carry an unsynced crash tail is the newest one
	// holding any payload — NOT necessarily the last file: Open rotates
	// to a fresh (header-only) file before Replay runs, and that empty
	// file sits after the one that was active when the process died.
	tail := crashTail(files)
	for _, f := range files {
		path := l.path(f.seq)
		p, err := parseFile(path, f == tail)
		switch {
		case os.IsNotExist(err):
		case err != nil:
			return err
		case f.pinned:
			if err := truncateTornTail(path, p.valid); err != nil {
				return err
			}
			l.mu.Lock()
			f.bytes, f.offsets = p.valid, p.offsets
			f.sealed = p.indexed
			unsealed := !f.sealed && len(p.recs)+len(p.refs) > 0
			l.mu.Unlock()
			if unsealed {
				ps := &pendingSeal{lf: f}
				if _, err := l.seal(ps); err != nil {
					if ps.f != nil {
						_ = ps.f.Close() // the seal error is the one to surface
					}
					return err
				}
			}
		}
		err = p.walk(func(i int, fr disk.FlushRecord) error {
			fr.LogSeq, fr.LogOrd, fr.ReplaySeq = f.seq, uint32(i), f.seq
			l.mu.Lock()
			f.frames++
			f.claim(1)
			l.mu.Unlock()
			return fn(fr)
		}, func(refs []disk.LogRef) error {
			return l.replayRefs(f, refs, readers, fn)
		})
		if err != nil {
			return err
		}
		l.mu.Lock()
		f.pinned = false
		drained, released := l.sweepLocked()
		l.mu.Unlock()
		l.retire(drained, released)
	}
	return nil
}

// frameReaders opens each log file reference frames list once, to read
// the frames they list through its frame index.
type frameReaders map[uint32]*disk.LogReader

// read returns the record framed at ref in dir, and its frame's size. A
// frame the file does not have is ErrCorrupt.
func (rs frameReaders) read(dir string, ref disk.LogRef) (disk.FlushRecord, int64, error) {
	r := rs[ref.Seq]
	if r == nil {
		var err error
		if r, err = disk.OpenLogReader(filepath.Join(dir, disk.LogName(ref.Seq))); err != nil {
			return disk.FlushRecord{}, 0, err
		}
		rs[ref.Seq] = r
	}
	if ref.Ord >= r.Frames() {
		return disk.FlushRecord{}, 0, fmt.Errorf("%w: the file frames %d", ErrCorrupt, r.Frames())
	}
	return r.Read(ref.Ord)
}

func (rs frameReaders) close() {
	for _, r := range rs {
		r.Close()
	}
}

// listedFrameError reports a reference of file own to ref that does not
// read.
func listedFrameError(own string, ref disk.LogRef, err error) error {
	return fmt.Errorf("wal: %s lists frame %d of %s: %w", own, ref.Ord, disk.LogName(ref.Seq), err)
}

// replayRefs delivers the records one reference frame of file f lists,
// reading each through its file's frame index.
func (l *Log) replayRefs(f *logFile, refs []disk.LogRef, readers frameReaders, fn func(disk.FlushRecord) error) error {
	for _, ref := range refs {
		fr, size, err := readers.read(l.dir, ref)
		if err != nil {
			return listedFrameError(disk.LogName(f.seq), ref, err)
		}
		fr.LogSeq, fr.LogOrd, fr.ReplaySeq = ref.Seq, ref.Ord, f.seq
		l.mu.Lock()
		f.refs++
		f.refBytes += size
		f.covers++
		f.addReach(ref.Seq)
		l.holdLocked(ref.Seq)
		l.mu.Unlock()
		if err := fn(fr); err != nil {
			return err
		}
	}
	return nil
}

// holdLocked adds one hold on file seq, entering it in the table as a
// drained file when replay finds a reference frame listing a record of
// it. Callers must hold l.mu.
func (l *Log) holdLocked(seq uint32) {
	if f := l.fileLocked(seq); f != nil {
		f.holds++
		return
	}
	f := &logFile{seq: seq, sealed: true, drained: true, holds: 1}
	i, _ := slices.BinarySearchFunc(l.files, seq, func(f *logFile, seq uint32) int { return cmp.Compare(f.seq, seq) })
	l.files = slices.Insert(l.files, i, f)
}

// crashTail returns the newest log file with payload beyond the header —
// the file that was active at crash time — or nil when every file is
// empty.
func crashTail(files []*logFile) *logFile {
	for i := len(files) - 1; i >= 0; i-- {
		if f := files[i]; f.bytes > headerSize {
			return f
		}
	}
	return nil
}

// truncateTornTail cuts path down to valid bytes when replay found a
// tolerated torn tail beyond that point. (Replay never visits the
// active file: Open rotates to a fresh one first.)
func truncateTornTail(path string, valid int64) error {
	st, err := os.Stat(path)
	if err != nil || st.Size() <= valid {
		return err
	}
	slog.Warn("wal: truncating torn tail",
		"file", filepath.Base(path), "valid_bytes", valid, "torn_bytes", st.Size()-valid)
	if err := failpoint.Eval(failpoint.WALReplayTruncate); err != nil {
		return err
	}
	return os.Truncate(path, valid)
}

// Release gives back n claims of records delivered by file replay and
// framed in file log: their covers on the one and holds on the other.
// The records are durable elsewhere, or their holder gives them up. A
// sealed file whose last cover goes drains before Release returns.
func (l *Log) Release(replay, log uint32, n int) {
	if n > 0 {
		l.retire(l.release(replay, int64(n), log, int64(n), nil))
	}
}

// release lowers replay's covers and log's holds by the counts given,
// lets mark annotate file replay, and returns what sweepLocked takes out.
func (l *Log) release(replay uint32, covers int64, log uint32, holds int64, mark func(*logFile)) ([]*logFile, []uint32) {
	l.mu.Lock()
	defer l.mu.Unlock() // lowerLocked may panic
	l.lowerLocked(replay, covers, "covers", func(f *logFile) *int64 { return &f.covers })
	l.lowerLocked(log, holds, "holds", func(f *logFile) *int64 { return &f.holds })
	if f := l.fileLocked(replay); f != nil && mark != nil {
		mark(f)
	}
	return l.sweepLocked()
}

// Claim adds n claims — covers on file replay, holds on file log — for a
// holder taking over records the log already delivers: a failed flush
// restoring evicted records while the wrappers they replace still hold
// theirs, or a flush keeping the files its directory will name. Both
// files exist.
func (l *Log) Claim(replay, log uint32, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.fileLocked(replay); f != nil && !f.drained {
		f.covers += int64(n)
	} else {
		lostClaim(replay, n)
	}
	if f := l.fileLocked(log); f != nil {
		f.holds += int64(n)
	} else {
		lostClaim(log, n)
	}
}

// lostClaim reports a claim on a file out of the table: a bookkeeping bug
// upstream, which fault-injection builds stop on.
func lostClaim(seq uint32, n int) {
	if failpoint.Enabled {
		panic(fmt.Sprintf("wal: claim on file %d, which is gone", seq))
	}
	slog.Error("wal: claim on a file that is gone", "file_seq", seq, "claims", n)
}

// lowerLocked lowers one of a file's claim counts. Releasing more than
// is held is a bookkeeping bug upstream: fault-injection builds stop on
// it; production builds keep the file (the safe direction) and say so.
func (l *Log) lowerLocked(seq uint32, n int64, what string, count func(*logFile) *int64) {
	if n == 0 {
		// Nothing held, so nothing to check: a reclaim that found no
		// survivor may find the file already drained by in-flight
		// releases.
		return
	}
	f := l.fileLocked(seq)
	if f == nil || *count(f) < n {
		if failpoint.Enabled {
			panic(fmt.Sprintf("wal: release of %d %s on file %d exceeds what is held", n, what, seq))
		}
		slog.Error("wal: release exceeds the claims held; keeping the file", "file_seq", seq, "claims", n, "count", what)
		if f != nil {
			f.pinned = true
		}
		return
	}
	*count(f) -= n
}

func (l *Log) fileLocked(seq uint32) *logFile {
	for _, f := range l.files {
		if f.seq == seq {
			return f
		}
	}
	return nil
}

// sweepLocked moves every file that may leave the replay set out of it —
// not active, replayed, uncovered, and sealed or holding no frame at all —
// and every drained file nothing holds out of the table. It returns the
// files just drained and the seqs of drained files the log has stopped
// holding (Holds) since.
func (l *Log) sweepLocked() (drained []*logFile, released []uint32) {
	var freed []uint32 // files whose reach went with their drain
	for _, f := range l.files {
		if f.drained || f == l.active || f.pinned || f.covers != 0 || !(f.sealed || f.deliveries() == 0) {
			continue
		}
		f.drained = true
		drained = append(drained, f)
		freed = append(freed, f.reach...)
		f.reach = nil
	}
	l.files = slices.DeleteFunc(l.files, func(f *logFile) bool {
		if !f.drained || f.holds != 0 {
			return false
		}
		if f.deliveries() > 0 { // an empty file goes when it drains
			freed = append(freed, f.seq)
		}
		return true
	})
	for _, seq := range freed {
		if !l.holdsLocked(seq) && !slices.Contains(released, seq) {
			released = append(released, seq)
		}
	}
	return drained, released
}

// Holds reports whether file seq must stay on disk for the log's sake: it
// is replayed, memory holds a record it frames, or a reference frame of a
// file still replayed lists one. The tiers' disk.LogSet asks before it
// unlinks a drained file (disk.LogSet.Track).
func (l *Log) Holds(seq uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holdsLocked(seq)
}

func (l *Log) holdsLocked(seq uint32) bool {
	for _, f := range l.files {
		if f.seq == seq || !f.drained && slices.Contains(f.reach, seq) {
			return true
		}
	}
	return false
}

// retire reports the files just drained, and the files the log let go,
// to Options.Logs; a log without one unlinks the latter itself. A file
// without frames is unlinked when it drains. A failed unlink leaves an
// orphan the next Open replays like any other file — wasteful, never
// lossy — so it is logged, not returned.
func (l *Log) retire(drained []*logFile, released []uint32) {
	for _, f := range drained {
		if f.deliveries() == 0 {
			l.unlink(f.seq)
		} else if l.opt.Logs != nil {
			l.opt.Logs.Drain(f.seq)
		}
		l.reclaimed.Add(f.bytes)
		l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALReclaim,
			int64(f.seq), f.survivors, f.reclaimNanos)
	}
	for _, seq := range released {
		if l.opt.Logs == nil {
			l.unlink(seq)
		} else {
			l.opt.Logs.Release(seq)
		}
	}
}

// unlink removes file seq.
func (l *Log) unlink(seq uint32) {
	err := failpoint.Eval(failpoint.WALReclaimUnlink)
	if err == nil {
		err = os.Remove(l.path(seq))
	}
	if err != nil && !os.IsNotExist(err) {
		slog.Warn("wal: cannot unlink reclaimed file", "file_seq", seq, "err", err)
	}
}

// ReclaimCandidate names the sealed file to reference survivors out of
// next: the one with the smallest share of its deliveries still covered,
// provided at least half of them are not (a mostly-live file buys little)
// and the other sealed files' replay — bytes scanned plus bytes their
// reference frames list — spans keep bytes by itself (a log no larger
// than the memory it covers is left alone). Files still pinned by Open,
// not yet sealed, or already referenced out and waiting only for
// in-flight flushes, are not candidates. With no candidate the sealed
// files replay under keep bytes plus one file, or under twice their
// covered deliveries.
func (l *Log) ReclaimCandidate(keep int64) (seq uint32, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *logFile
	var replay int64
	for _, f := range l.files {
		if f == l.active || f.drained || f.pinned || f.referenced || !f.sealed {
			continue
		}
		replay += f.replayBytes()
		// covers/deliveries compared by cross-multiplication; ties go to
		// the older file.
		if best == nil || f.covers*best.deliveries() < best.covers*f.deliveries() {
			best = f
		}
	}
	if best == nil || 2*best.covers > best.deliveries() || replay-best.replayBytes() < keep {
		return 0, false
	}
	return best.seq, true
}

// Replays reports whether file seq is in the replay set: not drained.
func (l *Log) Replays(seq uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.fileLocked(seq)
	return f != nil && !f.drained
}

// Reference retires sealed file from: frs are its survivors, the records
// still in memory whose replay goes through it, each naming the frame
// holding it (LogSeq, LogOrd). One reference frame listing those frames
// is appended to the active file and fsynced whatever Options.SyncEvery
// says; only then do the survivors' covers leave from, which drains once
// nothing in flight covers it either. No record byte is written, and
// holds stay where the bytes are. On success Reference returns the file
// that now delivers the survivors, their new ReplaySeq. On failure from
// keeps every cover, and a reference frame already written is an
// unclaimed duplicate replay tolerates.
func (l *Log) Reference(from uint32, frs []disk.FlushRecord) (uint32, error) {
	start := time.Now()
	var to uint32
	if len(frs) > 0 {
		var err error
		if to, err = l.appendReferences(frs); err != nil {
			return 0, fmt.Errorf("wal: reference: %w", err)
		}
	}
	l.retire(l.release(from, int64(len(frs)), 0, 0, func(f *logFile) {
		f.referenced = true
		f.survivors = int64(len(frs))
		f.reclaimNanos = time.Since(start).Nanoseconds()
		l.referenced += int64(len(frs))
	}))
	return to, nil
}

// appendReferences writes the reference frame listing frs to the active
// file, which takes their covers at once — so it cannot drain without
// them, whatever seals it meanwhile — and makes it durable, giving the
// covers back if it cannot.
func (l *Log) appendReferences(frs []disk.FlushRecord) (uint32, error) {
	refs := make([]disk.LogRef, len(frs))
	var size int64 // what replay reads through them
	var scratch []byte
	for i, fr := range frs {
		refs[i] = disk.LogRef{Seq: fr.LogSeq, Ord: fr.LogOrd}
		scratch = disk.AppendFrames(scratch[:0], frs[i:i+1])
		size += int64(len(scratch))
	}
	slices.SortFunc(refs, func(a, b disk.LogRef) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Ord, b.Ord))
	})
	buf := disk.AppendReferences(nil, refs)
	n := int64(len(frs))
	l.mu.Lock()
	af, err := l.writeLocked(buf)
	if err == nil {
		af.bytes += int64(len(buf))
		af.refs += n
		af.refBytes += size
		af.covers += n
		for _, r := range refs {
			af.addReach(r.Seq)
		}
	}
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	err = failpoint.Eval(failpoint.WALReferenceAppended)
	if err == nil {
		// A Seal running elsewhere may have taken the active file out of
		// service with the frame in it: sealing what is pending covers
		// that, the active file's fsync the rest.
		err = l.sealFiles()
	}
	if err == nil {
		err = l.syncActive()
	}
	if err == nil {
		err = failpoint.Eval(failpoint.WALReferenceSynced)
	}
	if err != nil {
		l.retire(l.release(af.seq, n, 0, 0, nil))
		return 0, err
	}
	return af.seq, nil
}

// Stats reports the log's footprint and reclaim counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		ReferencedRecords: l.referenced,
		ReclaimedBytes:    l.reclaimed.Load(),
	}
	for _, f := range l.files {
		if f.drained {
			continue
		}
		st.Files++
		st.Bytes += f.replayBytes()
		st.ReferencedBytes += f.refBytes
		st.LiveRecords += f.covers
	}
	return st
}

// Close seals the active file — one that holds no frame is removed
// instead — and every other file out of service. Files nothing covers
// drain on the way.
func (l *Log) Close() error {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	l.mu.Lock()
	if l.f != nil {
		if err := failpoint.Eval(failpoint.WALCloseSync); err != nil {
			l.mu.Unlock()
			return err
		}
		if l.active.deliveries() > 0 {
			l.sealing = append(l.sealing, &pendingSeal{f: l.f, lf: l.active})
		} else {
			// Nothing framed: nothing to keep. A file left behind by a
			// failure here holds no frame, and replay removes it.
			_ = l.f.Close()
			_ = os.Remove(l.path(l.active.seq))
			l.files = slices.DeleteFunc(l.files, func(f *logFile) bool { return f == l.active })
		}
		l.f, l.active = nil, nil
	}
	l.mu.Unlock()
	return l.sealFiles()
}

// FileInfo describes one log file for tooling.
type FileInfo struct {
	Name    string
	Version int
	// Frames is the number of valid records; Bytes the file size.
	Frames int
	Bytes  int64
	// References is the number of records its reference frames list,
	// ReferenceBytes the size of those frames, headers included.
	References     int
	ReferenceBytes int64
	// Sealed reports a frame index over the frames.
	Sealed bool
	// MinID and MaxID bound the record IDs framed (0 without frames).
	MinID, MaxID uint64
}

// readFiles parses paths in order and hands fn each result. A
// bad-checksum tail is tolerated where Replay tolerates it: in the
// newest file with payload (crashTail), which need not be the last file.
func readFiles(paths []string, fn func(string, parsedFile) error) error {
	files := make([]*logFile, len(paths))
	for i, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		files[i] = &logFile{bytes: st.Size()}
	}
	tail := crashTail(files)
	for i, path := range paths {
		p, err := parseFile(path, files[i] == tail)
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		if err := fn(path, p); err != nil {
			return err
		}
	}
	return nil
}

// Inspect summarizes the log files under dir without opening a Log: the
// offline tools' view, read only.
func Inspect(dir string) ([]FileInfo, error) {
	paths, err := logFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	err = readFiles(paths, func(path string, p parsedFile) error {
		fi := FileInfo{Name: filepath.Base(path), Version: fileVersion, Frames: len(p.recs),
			ReferenceBytes: p.refBytes, Sealed: p.indexed}
		for _, rf := range p.refs {
			fi.References += len(rf.refs)
		}
		if st, err := os.Stat(path); err == nil {
			fi.Bytes = st.Size()
		}
		for i, fr := range p.recs {
			id := uint64(fr.MB.ID)
			if i == 0 || id < fi.MinID {
				fi.MinID = id
			}
			fi.MaxID = max(fi.MaxID, id)
		}
		out = append(out, fi)
		return nil
	})
	return out, err
}

// DumpFile streams the frames of the log file at path in append order:
// each record to record, each reference frame's list to refs. A torn tail
// is tolerated.
func DumpFile(path string, record func(disk.FlushRecord) error, refs func([]disk.LogRef) error) error {
	p, err := parseFile(path, true)
	if err != nil {
		return err
	}
	return p.walk(func(_ int, fr disk.FlushRecord) error { return record(fr) }, refs)
}

// Verify checks that every reference frame of a log file under dir the
// manifest does not list drained resolves: the file it lists is present
// and sealed, and frames a readable record at the ordinal. It returns the
// number of references checked.
func Verify(dir string) (int, error) {
	m, _ := disk.ReadManifest(dir) // no manifest: nothing is drained
	paths, err := logFiles(dir)
	if err != nil {
		return 0, err
	}
	paths = slices.DeleteFunc(paths, func(p string) bool { return slices.Contains(m.Drained, filepath.Base(p)) })
	readers := frameReaders{}
	defer readers.close()
	checked := 0
	err = readFiles(paths, func(path string, p parsedFile) error {
		for _, rf := range p.refs {
			for _, ref := range rf.refs {
				if _, _, err := readers.read(dir, ref); err != nil {
					return listedFrameError(filepath.Base(path), ref, err)
				}
				checked++
			}
		}
		return nil
	})
	return checked, err
}
