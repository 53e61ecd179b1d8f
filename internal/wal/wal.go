// Package wal is the write-ahead log of an engine's memory contents,
// reclaimed online so it stays proportional to memory, not to uptime.
//
// The paper's system model keeps recent microblogs only in memory until
// a flush moves them to disk; a crash would lose everything since the
// last flush. A production store needs better: every ingested record is
// appended to the log before it is acknowledged, and on restart the log
// is replayed to rebuild memory.
//
// Files live in one directory:
//
//	snapshot.kfw     — optional; memory contents at the last clean
//	                   shutdown. File 0 of the scheme below.
//	wal-XXXXXXXX.kfw — the log proper, rotated by size; XXXXXXXX is the
//	                   file sequence, 1 and up. The newest is active,
//	                   the others are sealed.
//
// Every file starts with magic "KFWL" and a u16 version, then frames:
// u32 payload length | u32 CRC32C of payload | payload, where the
// payload is one record in the disk tier's encoding (it already carries
// the assigned ID, timestamp and ranking score). Version 2 files — the
// only ones written — frame disk.CodecCompact records, the encoding of
// the tier's record blocks; version 1 files, written before PR 25, frame
// disk.CodecFixed records and are still replayed, and reclaimed like any
// other file once their last claim goes. Any other version is
// ErrCorrupt. A torn final record — the expected crash artifact — is
// detected by the CRC/length check and replay stops there; corruption
// in the middle of the log is reported as an error.
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
//	a file is unlinked only at zero claims, and a claim comes down only
//	after the record is durable somewhere else — in an installed
//	segment, or in a relocated frame that has been fsynced.
//
// A flushing policy that evicts by usefulness rather than by age never
// drains an old file on its own: a few long-lived records pin it. So
// the owner asks ReclaimCandidate which sealed file to retire, hands
// Relocate the file's memory-resident survivors, and Relocate re-appends
// them to the active file, fsyncs (whatever Options.SyncEvery says),
// moves their claims, and lets the zero-claims rule delete the source —
// discard-count-driven log GC with memory as the source of survivors,
// so the old file is never read. Crash windows: before the fsync the
// source is intact and the copies are at worst a torn tail; between
// fsync and unlink both files hold the frame and replay names the newer
// one; the unlink itself is atomic. One further condition guards the ID
// counter, which recovery resumes from the highest ID it replays: a
// file is kept while no other file frames an ID at least as high.
//
// The clean-shutdown snapshot (WriteSnapshot) still replaces the whole
// log at once; it is no longer the only thing that truncates it.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/types"
)

// walCommitLabels attributes the group-commit slow path (fsync,
// rotation) to the WAL in CPU profiles. The per-append fast path stays
// unlabeled: labeling allocates, and appends are the 0-alloc hot path.
var walCommitLabels = pprof.Labels("kflushing", "wal-group-commit")

const (
	fileMagic     = "KFWL"
	fileVersion   = 2 // disk.CodecCompact frames; the one write version
	fileVersionV1 = 1 // disk.CodecFixed frames: read only
	headerSize    = 6 // magic + u16 version
	snapshotName  = "snapshot.kfw"
)

// ErrCorrupt reports log corruption before the final record.
var ErrCorrupt = errors.New("wal: corrupt log")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends a file header naming the write version: every
// file the log writes starts here.
func appendHeader(buf []byte) []byte {
	buf = append(buf, fileMagic...)
	return binary.LittleEndian.AppendUint16(buf, fileVersion)
}

// appendFrames appends one frame per record: every frame the log writes
// is built here.
func appendFrames(buf []byte, frs []disk.FlushRecord) []byte {
	for _, fr := range frs {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
		buf = disk.EncodeRecord(buf, fr)
		payload := buf[start+8:]
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	}
	return buf
}

// fileCodec is the record encoding a file of the given version frames.
func fileCodec(version uint16) (disk.Codec, bool) {
	switch version {
	case fileVersion:
		return disk.CodecCompact, true
	case fileVersionV1:
		return disk.CodecFixed, true
	}
	return 0, false
}

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
	// buffering (fsync still happens on rotation and close).
	SyncEvery int
	// PooledBuffers reuses the per-batch encode buffer across
	// AppendBatch calls via a sync.Pool instead of allocating each time
	// (AllocPolicy=pooled).
	PooledBuffers bool
	// Recorder, when non-nil, receives append/sync/rotate events on the
	// engine's flight recorder. Recording is allocation-free.
	Recorder *blackbox.Recorder
}

// DefaultMaxFileBytes is the rotation size when Options leaves it zero.
const DefaultMaxFileBytes = 16 << 20

// relocateChunk bounds one relocation append, so Relocate never holds
// the log's lock (and with it concurrent ingestion) for longer than an
// ingest batch would.
const relocateChunk = 256

// logFile is one file of the log as the claims table sees it.
type logFile struct {
	seq   uint32 // 0 is the snapshot
	bytes int64
	// frames counts the records framed in the file, live the claims on
	// it (see the package comment): live/frames is how much of the file
	// a relocation would have to copy.
	frames int64
	live   int64
	// maxID is the highest record ID framed in the file.
	maxID uint64
	// pinned marks a file found by Open and not yet replayed: its claims
	// are unknown, so it must not be reclaimed.
	pinned bool
	// drained marks a file whose survivors Relocate moved out; what is
	// left of live are records in flight to the tier.
	drained bool
	// survivors and relocNanos describe that relocation for the
	// wal_reclaim event.
	survivors  int64
	relocNanos int64
}

// count registers one more claimed frame, of record id, in the file.
func (f *logFile) count(id types.ID) {
	f.frames++
	f.live++
	f.maxID = max(f.maxID, uint64(id))
}

// Stats is a point-in-time view of the log's footprint and reclaim work.
type Stats struct {
	// Bytes and Files cover the snapshot, the sealed files and the active
	// one.
	Bytes int64
	Files int
	// LiveRecords is the sum of all claims.
	LiveRecords int64
	// RelocatedRecords and ReclaimedBytes count, since Open, the frames
	// Relocate re-appended and the bytes of the files unlinked.
	RelocatedRecords int64
	ReclaimedBytes   int64
}

// Log is an append-only write-ahead log. Append, AppendBatch, Release,
// Relocate and Stats are safe for concurrent use; WriteSnapshot must not
// run concurrently with appends, and Replay runs once, before the first
// append.
type Log struct {
	dir string
	opt Options

	mu sync.Mutex
	f  *os.File
	// files is the claims table, oldest first: the snapshot (if any),
	// the sealed files, then active.
	files     []*logFile
	active    *logFile // nil once the log is closed or sealed by a fault
	seq       uint32   // highest file sequence handed out
	sinceSync int
	relocated int64

	appended  atomic.Int64
	reclaimed atomic.Int64
}

// Open creates or reopens a log directory.
func Open(dir string, opt Options) (*Log, error) {
	if opt.MaxFileBytes <= 0 {
		opt.MaxFileBytes = DefaultMaxFileBytes
	}
	if err := failpoint.Eval(failpoint.WALOpenMkdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash during WriteSnapshot can leave a half-written temp file;
	// it was never renamed into place, so it holds nothing durable.
	// Removal failure is harmless — the next snapshot recreates it.
	_ = os.Remove(filepath.Join(dir, snapshotName+".tmp"))
	l := &Log{dir: dir, opt: opt}
	// Whatever a previous process left is pinned until Replay has counted
	// its claims; the new active file continues after the newest of them.
	if st, err := os.Stat(l.path(0)); err == nil {
		l.files = append(l.files, &logFile{bytes: st.Size(), pinned: true})
	}
	files, err := l.logFiles()
	if err != nil {
		return nil, err
	}
	for _, p := range files {
		var seq uint32
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%08d.kfw", &seq); err != nil {
			continue
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, &logFile{seq: seq, bytes: st.Size(), pinned: true})
		l.seq = seq
	}
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// path returns the file holding sequence seq.
func (l *Log) path(seq uint32) string {
	if seq == 0 {
		return filepath.Join(l.dir, snapshotName)
	}
	return filepath.Join(l.dir, fmt.Sprintf("wal-%08d.kfw", seq))
}

// logFiles returns the wal files oldest-first.
func (l *Log) logFiles() ([]string, error) {
	files, err := filepath.Glob(filepath.Join(l.dir, "wal-*.kfw"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

// rotateLocked seals the active file and starts a new one; a sealed
// file nobody claims goes at once. Callers must hold l.mu (or own the
// log exclusively).
func (l *Log) rotateLocked() error {
	var rotated int64
	start := time.Now()
	if l.f != nil {
		rotated = l.active.bytes
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f, l.active = nil, nil
	}
	if err := failpoint.Eval(failpoint.WALRotateSeal); err != nil {
		return err
	}
	l.seq++
	path := l.path(l.seq)
	if err := failpoint.Eval(failpoint.WALRotateCreate); err != nil {
		l.seq--
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		l.seq--
		return err
	}
	whdr, fperr := failpoint.EvalWrite(failpoint.WALRotateHeader, appendHeader(nil))
	if _, err := f.Write(whdr); err != nil {
		// The header write already failed; the Write error is the one
		// to surface, not the cleanup's.
		_ = f.Close()
		return err
	}
	if fperr != nil {
		_ = f.Close()
		return fperr
	}
	l.f = f
	l.active = &logFile{seq: l.seq, bytes: headerSize}
	l.files = append(l.files, l.active)
	l.sinceSync = 0
	l.opt.Recorder.Record(blackbox.SubWAL, blackbox.EvWALRotate,
		int64(l.seq), rotated, time.Since(start).Nanoseconds())
	l.unlink(l.takeRemovableLocked())
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
// frames, and that file carries one more claim per frame: the caller
// owns the claims and gives them back with Release. A caller that never
// does (a probe, a tool) simply keeps every file.
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
	buf = appendFrames(buf, frs)
	if err := failpoint.Eval(failpoint.WALAppend); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: closed")
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
		return err
	}
	if fperr != nil {
		l.rollbackTailLocked()
		return fperr
	}
	if err := failpoint.Eval(failpoint.WALAppendAfterWrite); err != nil {
		// The frames are fully written and valid: leave them. Replay
		// may resurrect the unacknowledged batch (at-least-once), which
		// recovery deduplicates; truncating valid frames would risk the
		// opposite — dropping data a concurrent reader saw acked.
		l.active.bytes += int64(len(buf))
		return err
	}
	af := l.active
	af.bytes += int64(len(buf))
	for i := range frs {
		frs[i].LogSeq = af.seq
		af.count(frs[i].MB.ID)
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
			return serr
		}
		l.sinceSync = 0
	}
	if af.bytes >= l.opt.MaxFileBytes {
		var rerr error
		pprof.Do(context.Background(), walCommitLabels, func(context.Context) {
			rerr = l.rotateLocked()
		})
		return rerr
	}
	return nil
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

// Replay streams every surviving record — the snapshot first (if any),
// then the log files in order — to fn, with LogSeq naming the file the
// frame came from. Each delivered frame becomes a claim on that file,
// owned by fn's side: the engine releases the ones it does not keep
// (a duplicate of a frame it already holds, a record without keys) and
// the ones it later flushes; a caller that releases nothing keeps every
// file. When a file has been replayed its Open-time pin is dropped, so
// a file nothing claims — a header-only leftover of an earlier open,
// or one whose records fn flushed while later files replayed — is
// unlinked on the spot.
//
// Tolerance matches what crashes actually produce: a truncated frame at
// the END of any file is accepted (a crash tears the tail of whichever
// file was active; reopening rotates to a new file, so the torn one
// need not be the newest). A failed checksum inside a complete frame is
// tolerated only in the newest file (a partially overwritten final
// frame); anywhere else it is real corruption and returns ErrCorrupt.
//
// Tolerated torn tails are physically truncated away (with a logged
// warning). That is load-bearing, not cosmetic: a torn tail left in
// place stops being "the end of the file" once the log grows or
// rotates, and the next recovery would refuse it as mid-log corruption.
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
	// The snapshot is never it: it is renamed into place complete.
	tail := crashTail(files)
	for _, f := range files {
		path := l.path(f.seq)
		valid, err := replayFile(path, f == tail, func(fr disk.FlushRecord) error {
			fr.LogSeq = f.seq
			l.mu.Lock()
			f.count(fr.MB.ID)
			l.mu.Unlock()
			return fn(fr)
		})
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if err == nil {
			if err := truncateTornTail(path, valid); err != nil {
				return err
			}
		}
		l.mu.Lock()
		f.pinned = false
		if err == nil && valid < f.bytes {
			f.bytes = valid
		}
		victims := l.takeRemovableLocked()
		l.mu.Unlock()
		l.unlink(victims)
	}
	return nil
}

// crashTail returns the newest log file (never the snapshot) with
// payload beyond the header — the file that was active at crash time —
// or nil when every file is empty.
func crashTail(files []*logFile) *logFile {
	for i := len(files) - 1; i >= 0; i-- {
		if f := files[i]; f.seq != 0 && f.bytes > headerSize {
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

// replayFile reads one framed file, decoding its records with the codec
// its version names, and reports the byte length of the valid prefix it
// replayed. Truncation at EOF is always tolerated; complete-but-invalid
// frames only when lastFile is set. A tolerated torn tail yields
// (valid-prefix, nil) with the tail NOT replayed; the caller is expected
// to truncate the file to that length. An unknown version is
// ErrCorrupt: its frames cannot be read with a codec it does not name.
func replayFile(path string, lastFile bool, fn func(disk.FlushRecord) error) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(b) < headerSize {
		return 0, nil // torn before the header was complete
	}
	if string(b[:4]) != fileMagic {
		return 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, filepath.Base(path))
	}
	version := binary.LittleEndian.Uint16(b[4:])
	codec, ok := fileCodec(version)
	if !ok {
		return 0, fmt.Errorf("%w: unknown version %d in %s", ErrCorrupt, version, filepath.Base(path))
	}
	pos := headerSize
	for pos < len(b) {
		if pos+8 > len(b) {
			// Truncated frame header at EOF: the expected crash artifact.
			slog.Warn("wal: tolerating torn frame header at end of file",
				"file", filepath.Base(path), "offset", pos)
			return int64(pos), nil
		}
		n := int(binary.LittleEndian.Uint32(b[pos:]))
		crc := binary.LittleEndian.Uint32(b[pos+4:])
		if n < 0 || pos+8+n > len(b) {
			slog.Warn("wal: tolerating torn payload at end of file",
				"file", filepath.Base(path), "offset", pos)
			return int64(pos), nil
		}
		payload := b[pos+8 : pos+8+n]
		if crc32.Checksum(payload, crcTable) != crc {
			if lastFile {
				slog.Warn("wal: tolerating bad checksum in final frame",
					"file", filepath.Base(path), "offset", pos)
				return int64(pos), nil
			}
			return int64(pos), fmt.Errorf("%w: bad checksum in %s", ErrCorrupt, filepath.Base(path))
		}
		fr, used, err := disk.DecodeRecord(payload, codec)
		if err != nil || used != n {
			if lastFile {
				slog.Warn("wal: tolerating undecodable final frame",
					"file", filepath.Base(path), "offset", pos)
				return int64(pos), nil
			}
			return int64(pos), fmt.Errorf("%w: undecodable record in %s", ErrCorrupt, filepath.Base(path))
		}
		if err := fn(fr); err != nil {
			return int64(pos), err
		}
		pos += 8 + n
	}
	return int64(pos), nil
}

// Release gives back n claims on file seq: the records that held them
// are durable elsewhere. A sealed file whose last claim goes is
// unlinked before Release returns.
func (l *Log) Release(seq uint32, n int) {
	if n > 0 {
		l.unlink(l.release(seq, int64(n), nil))
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
// the wrappers they replace still hold theirs, so the file exists.
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

// takeRemovableLocked removes from the table, and returns, every sealed
// file that may go: replayed, unclaimed, and not the only file framing
// the highest record ID — recovery resumes the ID counter from the
// frames it replays, so the log must always hold one at the high-water
// mark. (The next append to the active file supersedes it.)
func (l *Log) takeRemovableLocked() []*logFile {
	var victims []*logFile
	for i := 0; i < len(l.files); {
		f := l.files[i]
		if f == l.active || f.pinned || f.live != 0 || !l.supersededLocked(f) {
			i++
			continue
		}
		victims = append(victims, f)
		l.files = append(l.files[:i], l.files[i+1:]...)
	}
	return victims
}

// supersededLocked reports whether some other file frames an ID at
// least as high as f's highest.
func (l *Log) supersededLocked(f *logFile) bool {
	for _, g := range l.files {
		if g != f && g.maxID >= f.maxID {
			return true
		}
	}
	return false
}

// unlink deletes files already taken out of the table. A failure leaves
// an orphan the next Open replays like any other file — wasteful, never
// lossy — so it is logged, not returned.
func (l *Log) unlink(victims []*logFile) {
	for _, f := range victims {
		err := failpoint.Eval(failpoint.WALReclaimUnlink)
		if err == nil {
			err = os.Remove(l.path(f.seq))
		}
		if err != nil && !os.IsNotExist(err) {
			slog.Warn("wal: cannot unlink reclaimed file", "file_seq", f.seq, "err", err)
			continue
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
// it covers is left alone). Files still pinned by Open, or already
// drained and waiting only for in-flight flushes, are not candidates.
// With no candidate the sealed files hold under keep bytes plus one
// file, or under twice the live frames.
func (l *Log) ReclaimCandidate(keep int64) (seq uint32, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *logFile
	var sealed int64
	for _, f := range l.files {
		if f == l.active || f.pinned || f.drained {
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
// says; only then do their claims leave from, which is unlinked once
// nothing in flight claims it either. On success every frs[i].LogSeq
// names the frame's new file. On failure from keeps all its claims and
// the copies already written are unclaimed duplicates.
func (l *Log) Relocate(from uint32, frs []disk.FlushRecord) error {
	start := time.Now()
	if len(frs) > 0 {
		if err := l.copyOut(frs); err != nil {
			return err
		}
	}
	l.unlink(l.release(from, int64(len(frs)), func(f *logFile) {
		f.drained = true
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
		// A chunk that crossed a rotation was fsynced by it; this covers
		// the rest.
		err = l.Sync()
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

// WriteSnapshot atomically replaces the snapshot with the given records
// and deletes all sealed log files, restarting the log. Must not run
// concurrently with Append.
func (l *Log) WriteSnapshot(recs []disk.FlushRecord) error {
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// On any failure before the explicit Close, drop the handle; the
	// write/sync error is the one to surface, not the cleanup's.
	closed := false
	defer func() {
		if !closed {
			_ = f.Close()
		}
	}()
	buf := appendFrames(appendHeader(make([]byte, 0, headerSize+96*len(recs))), recs)
	wbuf, fperr := failpoint.EvalWrite(failpoint.WALSnapshotWrite, buf)
	if _, err := f.Write(wbuf); err != nil {
		return err
	}
	if fperr != nil {
		return fperr
	}
	if err := failpoint.Eval(failpoint.WALSnapshotSync); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	closed = true
	if err := f.Close(); err != nil {
		return err
	}
	// The temp file is durable; until the rename lands the old snapshot
	// plus the sealed logs still describe the same state, so a crash on
	// either side of this point recovers identically.
	if err := failpoint.Eval(failpoint.WALSnapshotRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return err
	}

	// The snapshot now covers everything; retire the old log and start
	// a fresh file. A crash before the removals finish merely leaves
	// log files whose records the snapshot already holds — replay
	// deduplicates them.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		err := l.f.Close()
		l.f, l.active = nil, nil
		if err != nil {
			return err
		}
	}
	if err := failpoint.Eval(failpoint.WALSnapshotCleanup); err != nil {
		return err
	}
	files, err := l.logFiles()
	if err != nil {
		return err
	}
	for _, p := range files {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	// Every claim moves to the snapshot with its record.
	snap := &logFile{bytes: int64(len(buf))}
	for _, fr := range recs {
		snap.count(fr.MB.ID)
	}
	l.files = []*logFile{snap}
	return l.rotateLocked()
}

// Close seals the active file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := failpoint.Eval(failpoint.WALCloseSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f, l.active = nil, nil
	return err
}
