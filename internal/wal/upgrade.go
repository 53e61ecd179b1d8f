package wal

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// Stores before the log became the record store kept it in <dir>/wal/:
// files of version 1 (fixed-width frames) or 2 (no frame index), and
// snapshot.kfw, memory at the last clean shutdown, replayed first.
func legacyDir(dir string) string { return filepath.Join(dir, "wal") }

// CheckDir refuses, with disk.ErrNeedsUpgrade, a directory holding a log
// in <dir>/wal; a durable store checks before it opens anything.
func CheckDir(dir string) error {
	if _, err := os.Stat(legacyDir(dir)); err == nil {
		return fmt.Errorf("wal: %s holds a log: %w", legacyDir(dir), disk.ErrNeedsUpgrade)
	}
	return nil
}

// Upgrade moves a log left in <dir>/wal into dir: its records — the
// snapshot's, then each file's — are framed into one new sealed file of
// this log, numbered past every log file on disk and every one the tier's
// manifest lists drained, which is fsynced with the directory; only then
// is <dir>/wal removed. The next durable open replays the new file. A
// crash before the removal leaves both: the next Upgrade frames the
// records again, and recovery keeps one copy per ID.
func Upgrade(dir string) error {
	legacy := legacyDir(dir)
	if _, err := os.Stat(legacy); os.IsNotExist(err) {
		return nil
	}
	// snapshot.kfw sorts before wal-*.
	paths, _ := filepath.Glob(filepath.Join(legacy, "*.kfw")) // fails only on a bad pattern
	var frs []disk.FlushRecord
	if err := readFiles(paths, parseLegacyFile, func(_ string, p parsedFile) error {
		frs = append(frs, p.recs...)
		return nil
	}); err != nil {
		return fmt.Errorf("wal: upgrade %s: %w", legacy, err)
	}
	if len(frs) > 0 {
		on, _ := logFiles(dir)         // a glob fails only on a bad pattern
		m, _ := disk.ReadManifest(dir) // without a current manifest nothing is drained
		l := &Log{dir: dir, opt: Options{MaxFileBytes: 1 << 31}}
		for _, name := range append(on, m.Drained...) {
			if seq, ok := disk.ParseLogName(name); ok {
				l.seq = max(l.seq, seq)
			}
		}
		f, err := l.createFile(l.seq + 1)
		if err != nil {
			return err
		}
		l.startLocked(f, l.seq+1)
		err = l.AppendBatch(frs)
		if cerr := l.Close(); err == nil { // the append error is the one to surface
			err = cerr
		}
		if err == nil {
			err = disk.SyncDir(dir)
		}
		if err != nil {
			return err
		}
		slog.Info("wal: moved a log into the store directory", "dir", legacy, "records", len(frs), "file", disk.LogName(l.seq))
	}
	// The crash window this site names: the records durable in the new
	// file, the old files still there.
	if err := failpoint.Eval(failpoint.WALMigrateRemove); err != nil {
		return err
	}
	return os.RemoveAll(legacy)
}

// parseLegacyFile is parseFile for a file of <dir>/wal: version 1 or 2.
func parseLegacyFile(path string, lastFile bool) (parsedFile, error) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < headerSize {
		return parsedFile{}, err
	}
	version := binary.LittleEndian.Uint16(b[4:])
	if string(b[:4]) != disk.LogMagic || (version != disk.LogVersionV1 && version != disk.LogVersionV2) {
		return parsedFile{}, fmt.Errorf("%w: not a version 1 or 2 log file", ErrCorrupt)
	}
	decode := disk.DecodeRecord
	if version == disk.LogVersionV1 {
		decode = disk.DecodeFixedRecord
	}
	return parseFrames(b, filepath.Base(path), lastFile, 0, decode)
}
