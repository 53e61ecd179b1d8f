package disk

import (
	"cmp"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"kflushing/internal/failpoint"
)

// The durable-file seam: every file of the tier and of the write-ahead
// log is created, written, fsynced, renamed, truncated and unlinked here
// and nowhere else in this package or internal/wal (CI greps for it).
// A tier file is staged — written under a staging name, fsynced, closed —
// then installed: renamed to its final name, the directory fsynced. A
// log file is created under its final name, its directory fsynced before
// it takes an append. So no directory entry a crash can forget is acked.
// Callers name a kind of file, never a failpoint site: each step picks
// the kind's site in a switch (sites must be compile-time constants).

// fileKind is the kind of a file the seam writes.
type fileKind uint8

const (
	kindBlock    fileKind = iota // a flush's record block, blk-N.kfs, staged as .tmp
	kindDir                      // a flush's directory, seg-N.kfs, staged as .tmp
	kindMerged                   // a merge's directory, lvl-N.kfs, staged as .compact
	kindManifest                 // the tier's manifest, staged as .tmp
	kindProbe                    // the readiness probe, staged and removed
	kindLog                      // a log file, wal-N.kfw, created in place
)

// create makes the file a kind's bytes go to: a staging name, a probe's
// unique one, or a log file's final name.
func create(k fileKind, path string) (*os.File, error) {
	var err error
	switch k {
	case kindManifest: // its write site covers the create
	case kindLog:
		if err = failpoint.Eval(failpoint.WALRotateSeal); err == nil {
			err = failpoint.Eval(failpoint.WALRotateCreate)
		}
	default:
		err = failpoint.Eval(failpoint.DiskSegmentCreate)
	}
	switch {
	case err != nil:
		return nil, err
	case k == kindLog:
		return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	case k == kindProbe:
		return os.CreateTemp(filepath.Dir(path), filepath.Base(path))
	case k == kindMerged:
		path += ".compact"
	default:
		path += ".tmp"
	}
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// write writes data to f through the kind's torn-write site: each kind
// is torn by its own, so fault injection cuts any one file short.
func write(k fileKind, f *os.File, data []byte) error {
	var out []byte
	var fperr error
	switch k {
	case kindBlock, kindProbe:
		out, fperr = failpoint.EvalWrite(failpoint.DiskSegmentWrite, data)
	case kindDir, kindMerged:
		out, fperr = failpoint.EvalWrite(failpoint.DiskSegmentDirWrite, data)
	case kindManifest:
		out, fperr = failpoint.EvalWrite(failpoint.DiskManifestWrite, data)
	case kindLog:
		out, fperr = failpoint.EvalWrite(failpoint.WALRotateHeader, data)
	}
	_, err := f.Write(out)
	return cmp.Or(err, fperr)
}

// syncDir fsyncs directory dir, so every entry in it — a file just
// created or renamed there — is durable.
func syncDir(k fileKind, dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		if k == kindLog {
			err = failpoint.Eval(failpoint.WALCreateDirSync)
		} else {
			err = failpoint.Eval(failpoint.DiskDirSync)
		}
		if err == nil {
			err = d.Sync()
		}
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("disk: sync directory: %w", err)
	}
	failpoint.NoteFile(failpoint.DirSynced, dir)
	return nil
}

// stagedFile is a written, fsynced file at its staging path: durable
// content no recovery reads. install makes it live; discard removes it.
type stagedFile struct {
	kind    fileKind
	tmpPath string
	path    string
	size    int64
}

// stage writes data to path's staging name (for a probe, path is an
// os.CreateTemp pattern), fsyncs and closes it. A crash or error here
// leaves at most a staged orphan, which Open removes.
func stage(k fileKind, path string, data []byte) (*stagedFile, error) {
	f, err := create(k, path)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", filepath.Base(path), err)
	}
	st := &stagedFile{kind: k, tmpPath: f.Name(), path: path, size: int64(len(data))}
	err = write(k, f, data)
	if err == nil {
		if k == kindManifest {
			err = failpoint.Eval(failpoint.DiskManifestSync)
		} else {
			err = failpoint.Eval(failpoint.DiskSegmentSync)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(st.tmpPath) // the staging error is the one to surface
		return nil, fmt.Errorf("disk: stage %s: %w", filepath.Base(path), err)
	}
	return st, nil
}

// install renames the staged file to its final name and fsyncs the
// directory. After an error the caller discards — except after
// ErrCommitUnsynced: a manifest's rename is its commit, which stands
// once made, even though a crash may still forget it.
func (st *stagedFile) install() error {
	var err error
	switch st.kind {
	case kindMerged:
		err = failpoint.Eval(failpoint.DiskCompactRename)
	case kindManifest:
		err = failpoint.Eval(failpoint.DiskManifestRename)
	default:
		err = failpoint.Eval(failpoint.DiskSegmentRename)
	}
	if err == nil {
		err = os.Rename(st.tmpPath, st.path)
	}
	if err != nil {
		return fmt.Errorf("disk: rename %s: %w", filepath.Base(st.path), err)
	}
	failpoint.NoteFile(failpoint.FileCreated, st.path)
	err = syncDir(st.kind, filepath.Dir(st.path))
	if err != nil && st.kind == kindManifest {
		return fmt.Errorf("%w: %w", ErrCommitUnsynced, err)
	}
	return err
}

// discard removes the file under whichever name it has: a final
// name is this file's alone (sequence numbers are never reused), except
// the manifest's. Failures are harmless: Open sweeps what is left.
func (st *stagedFile) discard() {
	_ = os.Remove(st.tmpPath)
	if st.kind != kindManifest {
		_ = os.Remove(st.path)
	}
}

// unlinkWhy names the unlinks that pass a site of their own. A plain
// one passes none: its caller's site covers it, or it is best effort.
// The site is evaluated here, in the function that removes the file,
// because kfvet's failpointcov wants an unlink whose error is used to
// share its function with a site, and a site must be a constant.
type unlinkWhy uint8

const (
	unlinkPlain     unlinkWhy = iota
	unlinkDrained             // a drained log file no tier needs
	unlinkReclaimed           // a log file the log lets go of itself
	unlinkRetired             // a retired compaction input, at open
)

// unlink removes path after the site why names.
func unlink(why unlinkWhy, path string) error {
	var err error
	switch why {
	case unlinkDrained:
		err = failpoint.Eval(failpoint.DiskDrainUnlink)
	case unlinkReclaimed:
		err = failpoint.Eval(failpoint.WALReclaimUnlink)
	case unlinkRetired:
		err = failpoint.Eval(failpoint.DiskAdoptRemove)
	}
	if err == nil {
		err = os.Remove(path)
	}
	return err
}

// LogFile is a log file open for appends: the log's active file, or one
// taken out of service and not yet sealed.
type LogFile struct {
	f    *os.File
	path string
}

// CreateLog creates log file path with its header and fsyncs its
// directory, so the file's entry is durable before it takes an append;
// a file torn inside its header replays as empty. After an error nothing
// is left under the name.
func CreateLog(path string) (*LogFile, error) {
	f, err := create(kindLog, path)
	if err != nil {
		return nil, err
	}
	failpoint.NoteFile(failpoint.FileCreated, path)
	lf := &LogFile{f: f, path: path}
	if err = write(kindLog, f, AppendLogHeader(nil)); err == nil {
		err = syncDir(kindLog, filepath.Dir(path))
	}
	if err != nil {
		lf.Discard() // the write error is the one to surface
		return nil, err
	}
	return lf, nil
}

// Append writes buf at end, the file's length, through the log's
// torn-write site. A failed or partial write is cut back to end, so no
// later append buries a torn page mid-file, which replay refuses. When
// even the cut fails the handle is lost: the file takes no more.
func (lf *LogFile) Append(buf []byte, end int64) (lost bool, err error) {
	out, fperr := failpoint.EvalWrite(failpoint.WALAppendWrite, buf)
	n, err := lf.f.Write(out)
	if err = cmp.Or(err, fperr); err == nil {
		failpoint.NoteFile(failpoint.FileAppended, lf.path)
	}
	return n > 0 && err != nil && lf.cut(end, true), err
}

// cut truncates the file back to end after a failed write (an append's
// passes the rollback site), or closes the handle and reports it lost.
func (lf *LogFile) cut(end int64, appended bool) (lost bool) {
	var err error
	if appended {
		err = failpoint.Eval(failpoint.WALRollbackTruncate)
	}
	if err == nil {
		err = lf.f.Truncate(end)
	}
	if err != nil {
		slog.Error("disk: cannot cut a failed write off a log file; it takes no more writes",
			"file", filepath.Base(lf.path), "offset", end, "err", err)
		_ = lf.f.Close() // the write error is the one that matters
	}
	return err != nil
}

// Commit fsyncs the file: a group commit.
func (lf *LogFile) Commit() error {
	if err := failpoint.Eval(failpoint.WALSync); err != nil {
		return err
	}
	return lf.f.Sync()
}

// Probe fsyncs the file under the readiness probe's own site.
func (lf *LogFile) Probe() error {
	if err := failpoint.Eval(failpoint.WALReadySync); err != nil {
		return err
	}
	return lf.f.Sync()
}

// Close closes the handle.
func (lf *LogFile) Close() error { return lf.f.Close() }

// Discard closes and removes a file that holds no page, as replay would.
func (lf *LogFile) Discard() {
	_ = lf.f.Close()
	_ = os.Remove(lf.path)
}

// SealLog writes log file path's page index idx after its pages, which
// end at end, fsyncs and closes the file. lf is its handle, nil for a
// file a crash left unsealed. After an error the index is cut away and
// the handle returned for another try; when even that fails, or the file
// does not open, the handle is nil: the file stays unsealed until a
// replay seals it.
func SealLog(lf *LogFile, path string, end int64, idx []byte) (*LogFile, error) {
	// The crash window this site names: the file out of service, its
	// index not yet durable. No directory names it; replay seals it.
	err := failpoint.Eval(failpoint.WALSealSync)
	if err == nil && lf == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err == nil {
			lf = &LogFile{f: f, path: path}
		}
	}
	if lf == nil {
		return nil, err
	}
	if err == nil {
		_, err = lf.f.Write(idx)
	}
	if err == nil {
		err = lf.f.Sync()
	}
	if err == nil {
		_ = lf.f.Close() // written and fsynced: sealed whatever Close says
		return nil, nil
	}
	if lf.cut(end, false) {
		return nil, err
	}
	return lf, err
}

// TruncateTail cuts log file path, size bytes long, down to valid
// bytes: replay found a tolerated torn tail beyond them.
func TruncateTail(path string, size, valid int64) error {
	if size <= valid {
		return nil
	}
	slog.Warn("wal: truncating torn tail",
		"file", filepath.Base(path), "valid_bytes", valid, "torn_bytes", size-valid)
	if err := failpoint.Eval(failpoint.WALReplayTruncate); err != nil {
		return err
	}
	return os.Truncate(path, valid)
}

// RemoveLog unlinks log file path, which the log lets go of itself.
func RemoveLog(path string) error { return unlink(unlinkReclaimed, path) }
