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
// one record — and, once the file is
// sealed, a frame index. The log seals the active file and starts the
// next when it reaches Options.MaxFileBytes, and whenever the owner asks
// (Seal: a flush seals the file its victims' frames may sit in, because
// a directory names only sealed files). Sealing writes the frame index
// and fsyncs; Seal does that off the log's lock, so ingestion never
// waits on it. An older file version is disk.ErrNeedsUpgrade (see
// Upgrade), any other ErrCorrupt. A torn final record — the expected crash artifact — is detected by the
// CRC/length check and replay stops there; corruption in the middle of
// the log is reported as an error.
//
// # Claims
//
// The log keeps one count per file: the claims of the records whose
// newest frame the file holds and which have not yet left memory for a
// durably installed segment. AppendBatch (and Replay, per delivered
// frame) raises the count of the file it names in FlushRecord.LogSeq;
// the holder of a claim lowers it with Release — the engine does so in
// its flush pipeline's release stage, after the segment carrying the
// record is installed. The invariant everything else hangs on:
//
//	a file leaves the log only sealed and at zero claims, and a claim
//	comes down only after the record is durable somewhere else — posted
//	by an installed segment, or in a relocated frame that has been
//	fsynced.
//
// A file that leaves the log is drained: replay will not read it again.
// With Options.OnDrained set the log hands it to its owner — the engine
// passes it to the tier, whose next manifest commit carries the drained
// mark and which keeps the file for as long as a directory names it —
// and otherwise unlinks it.
// A file with no frames at all is unlinked either way.
//
// A flushing policy that evicts by usefulness rather than by age never
// drains an old file on its own: a few long-lived records pin it. So
// the owner asks ReclaimCandidate which sealed file to retire, hands
// Relocate the file's memory-resident survivors, and Relocate re-appends
// them to the active file, fsyncs (whatever Options.SyncEvery says),
// moves their claims, and lets the zero-claims rule drain the source —
// discard-count-driven log GC with memory as the source of survivors,
// so the old file is never read. Crash windows: before the fsync the
// source is intact and the copies are at worst a torn tail; between
// fsync and the drain both files hold the frame and replay names the
// newer one; the drain takes effect with one manifest commit. The file
// holding the highest record ID may drain like any other: the tier's
// manifest keeps the record-ID high-water mark of every installed
// segment, and a relocated record is framed again in an undrained file.
package wal

import (
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
	// Drained, when set, names the files Open must leave alone: drained
	// earlier, they are the tier's record files now and hold nothing to
	// replay.
	Drained func(seq uint32) bool
	// OnDrained, when set, takes every sealed file with frames whose last
	// claim went, in place of the unlink: the owner records the drain
	// and decides when the file goes.
	OnDrained func(seq uint32)
}

// DefaultMaxFileBytes is the rotation size when Options leaves it zero.
const DefaultMaxFileBytes = 16 << 20

// relocateChunk bounds one relocation append, so Relocate never holds
// the log's lock (and with it concurrent ingestion) for longer than an
// ingest batch would.
const relocateChunk = 256

// logFile is one file of the log as the claims table sees it.
type logFile struct {
	seq   uint32
	bytes int64
	// frames counts the records framed in the file, live the claims on
	// it (see the package comment): live/frames is how much of the file
	// a relocation would have to copy.
	frames int64
	live   int64
	// pinned marks a file found by Open and not yet replayed: its claims
	// are unknown, so it must not be reclaimed.
	pinned bool
	// sealed marks a file that is complete: frame index written and
	// fsynced. Only a sealed file may be named by a directory, relocated out of,
	// or drained.
	sealed bool
	// relocated marks a file whose survivors Relocate moved out; what is
	// left of live are records in flight to the tier.
	relocated bool
	// survivors and relocNanos describe that relocation for the
	// wal_reclaim event.
	survivors  int64
	relocNanos int64
	// offsets holds the start of every frame while the file is active:
	// its frame index, written when it is sealed.
	offsets []uint32
}

// count registers one more claimed frame in the file.
func (f *logFile) count() {
	f.frames++
	f.live++
}

// pendingSeal is a file taken out of service whose frame index is not
// yet written and fsynced: its handle is still open for that.
type pendingSeal struct {
	f  *os.File
	lf *logFile
}

// Stats is a point-in-time view of the log's footprint and reclaim work.
type Stats struct {
	// Bytes and Files cover the files the log still replays: the sealed
	// undrained files and the active one.
	Bytes int64
	Files int
	// LiveRecords is the sum of all claims.
	LiveRecords int64
	// RelocatedRecords and ReclaimedBytes count, since Open, the frames
	// Relocate re-appended and the bytes of the files drained.
	RelocatedRecords int64
	ReclaimedBytes   int64
}

// Log is an append-only write-ahead log. Append, AppendBatch, Seal,
// Release, Relocate and Stats are safe for concurrent use; Replay runs
// once, before the first append.
type Log struct {
	dir string
	opt Options

	mu sync.Mutex
	f  *os.File
	// files is the claims table, oldest first: the sealed files, then
	// active.
	files     []*logFile
	active    *logFile // nil once the log is closed or sealed by a fault
	seq       uint32   // highest file sequence handed out
	sinceSync int
	relocated int64
	// sealing holds the files taken out of service and not yet sealed.
	sealing []*pendingSeal

	// rotMu serializes rotations, which create the next file outside mu;
	// sealMu serializes sealFiles: one goroutine writes and fsyncs the
	// pending frame indexes, outside mu.
	rotMu  sync.Mutex
	sealMu sync.Mutex

	appended  atomic.Int64
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
		if opt.Drained != nil && opt.Drained(seq) {
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
// On success every frs[i].LogSeq names the file that now holds the
// frames, frs[i].LogOrd the frame's ordinal in it, and that file carries
// one more claim per frame: the caller owns the claims and gives them
// back with Release. A caller that never does (a probe, a tool) simply
// keeps every file. A batch that fills the file seals it on the way out.
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

// appendLocked writes one encoded batch to the active file and returns
// the file when the batch filled it. Callers must hold l.mu.
func (l *Log) appendLocked(frs []disk.FlushRecord, buf []byte, start time.Time) (full *logFile, err error) {
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
	af := l.active
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
		frs[i].LogSeq, frs[i].LogOrd = af.seq, uint32(af.frames)
		af.count()
	}
	l.appended.Add(int64(len(frs)))
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

// Appended returns the number of records appended by this process.
func (l *Log) Appended() int64 { return l.appended.Load() }

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
// unless it holds no frame, is taken out of service — a new file takes
// the appends from here on — and every file out of service is sealed:
// its frame index written, then fsynced. Only the swap holds the log's
// lock; the writes and fsyncs run on the caller, so ingestion does not
// wait on them. A flush calls it before it stages a directory naming
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
// here on a directory may name the file, and once nothing claims it, it
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
	victims := l.takeRemovableLocked()
	l.mu.Unlock()
	l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALSync,
		int64(len(offsets)), end, time.Since(start).Nanoseconds())
	l.retire(victims)
	return false, nil
}

// parsedFile is one log file as replay reads it.
type parsedFile struct {
	recs    []disk.FlushRecord
	offsets []uint32 // where each record's frame starts
	valid   int64    // length of the valid prefix, a frame index included
	indexed bool     // the prefix ends with a frame index over its frames
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
	switch v := binary.LittleEndian.Uint16(b[4:]); {
	case v > 0 && v < fileVersion:
		return parsedFile{}, fmt.Errorf("%s is log version %d: %w", name, v, disk.ErrNeedsUpgrade)
	case v != fileVersion:
		return parsedFile{}, fmt.Errorf("%w: unknown version %d in %s", ErrCorrupt, v, name)
	}
	return parseFrames(b, name, lastFile, true, disk.DecodeRecord)
}

// parseFrames reads the frames of a log file image b past its header,
// decoding each payload with decode. A frame index ends the file when
// indexed says the version has one.
func parseFrames(b []byte, name string, lastFile, indexed bool, decode func([]byte) (disk.FlushRecord, int, error)) (parsedFile, error) {
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
		if indexed && disk.IsFrameIndex(payload) {
			offsets, ok := disk.DecodeFrameIndex(payload)
			if !ok || !slices.Equal(offsets, p.offsets) || end != len(b) {
				return stop("frame index not matching its file", lastFile)
			}
			p.indexed = true
			p.valid = int64(end)
			return p, nil
		}
		fr, used, err := decode(payload)
		if err != nil || used != len(payload) {
			return stop("undecodable frame", lastFile)
		}
		p.recs = append(p.recs, fr)
		p.offsets = append(p.offsets, uint32(pos))
		pos = end
	}
	p.valid = int64(pos)
	return p, nil
}

// Replay streams every surviving record — the log files in sequence
// order, each file's frames in append order — to fn, with LogSeq and LogOrd naming the frame. Files
// the owner marked drained were never opened (Options.Drained), so
// their records are not delivered: they are in installed segments, or
// framed again in a newer file. Replay does not restore arrival order:
// a relocated record is delivered from its newest frame, after records
// that arrived later. Each delivered frame becomes a claim on its file,
// owned by fn's side: the engine releases the ones it does not keep (a
// duplicate of a frame it already holds, a record without keys) and the
// ones it later flushes; a caller that releases nothing keeps every
// file. When a file has been replayed its Open-time pin is dropped, so
// a file nothing claims — a header-only leftover, or one whose records
// fn flushed while later files replayed — drains on the spot.
//
// Tolerance matches what crashes actually produce: a truncated frame at
// the END of any file is accepted (a crash tears the tail of whichever
// file was active, or was being sealed). A failed checksum inside a
// complete frame is tolerated only in the newest file; anywhere else it
// is real corruption and returns ErrCorrupt.
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
			unsealed := !f.sealed && len(p.recs) > 0
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
		for i, fr := range p.recs {
			fr.LogSeq, fr.LogOrd = f.seq, uint32(i)
			l.mu.Lock()
			f.count()
			l.mu.Unlock()
			if err := fn(fr); err != nil {
				return err
			}
		}
		l.mu.Lock()
		f.pinned = false
		victims := l.takeRemovableLocked()
		l.mu.Unlock()
		l.retire(victims)
	}
	return nil
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

// Release gives back n claims on file seq: the records that held them
// are durable elsewhere. A sealed file whose last claim goes drains
// before Release returns.
func (l *Log) Release(seq uint32, n int) {
	if n > 0 {
		l.retire(l.release(seq, int64(n), nil))
	}
}

// release lowers seq's claim count by n, lets mark annotate the file,
// and returns the files that became removable, already out of the table.
func (l *Log) release(seq uint32, n int64, mark func(*logFile)) []*logFile {
	l.mu.Lock()
	defer l.mu.Unlock() // releaseLocked may panic
	l.releaseLocked(seq, n)
	if f := l.fileLocked(seq); f != nil && mark != nil {
		mark(f)
	}
	return l.takeRemovableLocked()
}

// Claim adds n claims on file seq for a holder taking over records the
// file already frames — a failed flush restoring evicted records while
// the wrappers they replace still hold theirs, or a flush keeping the
// files its directory will name — so the file exists.
func (l *Log) Claim(seq uint32, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.fileLocked(seq); f != nil {
		f.live += int64(n)
		return
	}
	if failpoint.Enabled {
		panic(fmt.Sprintf("wal: claim on file %d, which is gone", seq))
	}
	slog.Error("wal: claim on a file that is gone", "file_seq", seq, "claims", n)
}

// releaseLocked lowers a file's claim count. Releasing more than is
// held is a bookkeeping bug upstream: fault-injection builds stop on
// it; production builds keep the file (the safe direction) and say so.
func (l *Log) releaseLocked(seq uint32, n int64) {
	if n == 0 {
		// Nothing held, so nothing to check: a relocation that found no
		// survivor may find the file already drained by in-flight
		// releases.
		return
	}
	f := l.fileLocked(seq)
	if f == nil || f.live < n {
		if failpoint.Enabled {
			panic(fmt.Sprintf("wal: release of %d claims on file %d exceeds what is held", n, seq))
		}
		slog.Error("wal: release exceeds the claims held; keeping the file", "file_seq", seq, "claims", n)
		if f != nil {
			f.pinned = true
		}
		return
	}
	f.live -= n
}

func (l *Log) fileLocked(seq uint32) *logFile {
	for _, f := range l.files {
		if f.seq == seq {
			return f
		}
	}
	return nil
}

// takeRemovableLocked removes from the table, and returns, every file
// that may leave the log: not active, replayed, unclaimed, and sealed —
// or holding no frame at all.
func (l *Log) takeRemovableLocked() []*logFile {
	var victims []*logFile
	for i := 0; i < len(l.files); {
		f := l.files[i]
		if f == l.active || f.pinned || f.live != 0 || !(f.sealed || f.frames == 0) {
			i++
			continue
		}
		victims = append(victims, f)
		l.files = append(l.files[:i], l.files[i+1:]...)
	}
	return victims
}

// retire hands files already taken out of the table to the owner's
// OnDrained, or unlinks them: a file without frames, and every file of a
// log no owner keeps. A failed unlink leaves an orphan the next Open
// replays like any other file — wasteful, never lossy — so it is
// logged, not returned.
func (l *Log) retire(victims []*logFile) {
	for _, f := range victims {
		if f.frames > 0 && l.opt.OnDrained != nil {
			l.opt.OnDrained(f.seq)
		} else {
			err := failpoint.Eval(failpoint.WALReclaimUnlink)
			if err == nil {
				err = os.Remove(l.path(f.seq))
			}
			if err != nil && !os.IsNotExist(err) {
				slog.Warn("wal: cannot unlink reclaimed file", "file_seq", f.seq, "err", err)
				continue
			}
		}
		l.reclaimed.Add(f.bytes)
		l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALReclaim,
			int64(f.seq), f.survivors, f.relocNanos)
	}
}

// ReclaimCandidate names the sealed file to relocate out of next: the
// one with the smallest live share, provided at least half of it is
// dead (copying a mostly-live file buys nothing) and the other sealed
// files by themselves span keep bytes (a log no larger than the memory
// it covers is left alone). Files still pinned by Open, not yet sealed,
// or already relocated and waiting only for in-flight flushes, are not
// candidates. With no candidate the sealed files hold under keep bytes
// plus one file, or under twice the live frames.
func (l *Log) ReclaimCandidate(keep int64) (seq uint32, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *logFile
	var sealed int64
	for _, f := range l.files {
		if f == l.active || f.pinned || f.relocated || !f.sealed {
			continue
		}
		sealed += f.bytes
		// live/frames compared by cross-multiplication; ties go to the
		// older file.
		if best == nil || f.live*best.frames < best.live*f.frames {
			best = f
		}
	}
	if best == nil || 2*best.live > best.frames || sealed-best.bytes < keep {
		return 0, false
	}
	return best.seq, true
}

// Relocate retires sealed file from: frs — its survivors, the records
// still in memory whose newest frame it holds — are re-appended to the
// active file in small chunks and fsynced whatever Options.SyncEvery
// says; only then do their claims leave from, which drains once nothing
// in flight claims it either. On success every frs[i].LogSeq and LogOrd
// name the frame's new place. On failure from keeps all its claims and
// the copies already written are unclaimed duplicates.
func (l *Log) Relocate(from uint32, frs []disk.FlushRecord) error {
	start := time.Now()
	if len(frs) > 0 {
		if err := l.copyOut(frs); err != nil {
			return err
		}
	}
	l.retire(l.release(from, int64(len(frs)), func(f *logFile) {
		f.relocated = true
		f.survivors = int64(len(frs))
		f.relocNanos = time.Since(start).Nanoseconds()
		l.relocated += int64(len(frs))
	}))
	return nil
}

// copyOut appends frs chunk by chunk and makes them durable, taking the
// new claims back if it cannot.
func (l *Log) copyOut(frs []disk.FlushRecord) error {
	done := 0
	var err error
	for done < len(frs) && err == nil {
		end := min(done+relocateChunk, len(frs))
		if err = l.AppendBatch(frs[done:end]); err == nil {
			done = end
		}
	}
	if err == nil {
		err = failpoint.Eval(failpoint.WALRelocateAppended)
	}
	if err == nil {
		// A chunk that filled a file sealed it; a Seal running elsewhere
		// may have taken the active file out of service with copies in
		// it. Both are covered by sealing what is pending, the rest by
		// the active file's fsync.
		err = l.sealFiles()
	}
	if err == nil {
		err = l.syncActive()
	}
	if err == nil {
		err = failpoint.Eval(failpoint.WALRelocateSynced)
	}
	if err != nil {
		for _, fr := range frs[:done] {
			l.Release(fr.LogSeq, 1)
		}
		return fmt.Errorf("wal: relocate: %w", err)
	}
	return nil
}

// Stats reports the log's footprint and reclaim counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Files:            len(l.files),
		RelocatedRecords: l.relocated,
		ReclaimedBytes:   l.reclaimed.Load(),
	}
	for _, f := range l.files {
		st.Bytes += f.bytes
		st.LiveRecords += f.live
	}
	return st
}

// Close seals the active file — one that holds no frame is removed
// instead — and every other file out of service. Files nothing claims
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
		if l.active.frames > 0 {
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
	// Sealed reports a frame index over the frames.
	Sealed bool
	// MinID and MaxID bound the record IDs framed (0 without frames).
	MinID, MaxID uint64
}

// readFiles parses paths in order with parse and hands fn each result. A
// bad-checksum tail is tolerated where Replay tolerates it: in the
// newest file with payload (crashTail), which need not be the last file.
func readFiles(paths []string, parse func(string, bool) (parsedFile, error), fn func(string, parsedFile) error) error {
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
		p, err := parse(path, files[i] == tail)
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
	err = readFiles(paths, parseFile, func(path string, p parsedFile) error {
		fi := FileInfo{Name: filepath.Base(path), Version: fileVersion, Frames: len(p.recs), Sealed: p.indexed}
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
