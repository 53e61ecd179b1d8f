package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// The support window (DESIGN.md §7.1) is empty: every format this build
// reads is the one it writes, so Upgrade converts nothing. A retired
// format is refused, naming the last commit whose `kflushctl upgrade`
// converts it.
const (
	// roundUpgrade converts what the previous round's builds wrote: v3
	// directories, v3 log files, and one log per attribute.
	roundUpgrade = "b970d80"
	// olderUpgrade converts every format before those (v3 blocks, v2
	// segment files, version-1 and -2 manifests and log files, a log in
	// <dir>/wal) straight to the current ones.
	olderUpgrade = "ff40e7c"

	// logVersionV3 and segVersionV3 are the previous round's versions:
	// refused naming roundUpgrade, and anything older naming
	// olderUpgrade.
	logVersionV3 = 3
	segVersionV3 = 3
)

// ErrNeedsUpgrade reports a file this build no longer reads — an older
// version of a known file kind, a log in <dir>/wal, or a log kept in an
// attribute's own directory. The error wrapping it names the file and
// the commit whose offline upgrade converts it.
var ErrNeedsUpgrade = errors.New("retired file format")

// retired is ErrNeedsUpgrade for what, which the upgrade built at
// commit converts.
func retired(what, commit string) error {
	return fmt.Errorf("%s: %w: run `kflushctl upgrade <dir>` built at commit %s on the store directory, then open it with this build",
		what, ErrNeedsUpgrade, commit)
}

// checkVersion accepts the one version a reader of kind knows for the
// file name. An older one from round on is the previous round's, one
// older still is older; any other is corruption.
func checkVersion(name, kind string, got, want, round uint16) error {
	what := fmt.Sprintf("%s is %s version %d", name, kind, got)
	switch {
	case got == want:
		return nil
	case got >= round && got < want:
		return retired(what, roundUpgrade)
	case got > 0 && got < round:
		return retired(what, olderUpgrade)
	}
	return fmt.Errorf("%s: %w", what, ErrCorrupt)
}

// checkHeader checks the magic and version leading the tier file name,
// head its first LogHeaderSize bytes.
func checkHeader(name string, head []byte) error {
	version := binary.LittleEndian.Uint16(head[4:])
	switch string(head[:4]) {
	case blkMagic:
		return checkVersion(name, "block", version, blkVersion, blkVersion)
	case segMagic:
		return checkVersion(name, "directory", version, segVersion, segVersionV3)
	case LogMagic:
		return CheckLogVersion(name, version)
	}
	return fmt.Errorf("%s: %w", name, ErrCorrupt)
}

// CheckLogVersion checks the version of log file name: nil for
// LogVersion, ErrNeedsUpgrade for an older one, ErrCorrupt otherwise.
func CheckLogVersion(name string, version uint16) error {
	return checkVersion(name, "log file", version, LogVersion, logVersionV3)
}

// checkNoLogDir refuses a directory holding <dir>/wal, where the builds
// before the log became the record store kept it.
func checkNoLogDir(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return retired(filepath.Join(dir, "wal")+" holds a log", olderUpgrade)
	}
	return nil
}

// Upgrade is the offline preflight of a store directory: one tier's, or
// a data directory holding one tier per attribute. It converts nothing —
// this build writes every format it reads — and refuses, before any file
// changes, a directory holding a retired format, naming the file and the
// commit whose upgrade converts it: a tier file of an older version, a
// log in <tier>/wal, or logs in more than one tier of a data directory
// (the store keeps one log). Files the manifest retires are left to the
// next open. A directory in current formats passes untouched.
func Upgrade(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	tiers := []string{dir}
	if !isTier(dir) {
		subs, err := filepath.Glob(filepath.Join(dir, "*", "*.kf[msw]")) // manifest, blk-*, seg-*, lvl-*, wal-*
		if err != nil {
			return err
		}
		tiers = tiers[:0]
		for _, p := range subs {
			if t := filepath.Dir(p); !slices.Contains(tiers, t) {
				tiers = append(tiers, t)
			}
		}
	}
	var logged []string
	for _, t := range tiers {
		if err := checkTier(t); err != nil {
			return fmt.Errorf("disk: %w", err)
		}
		if names, _ := LogFileNames(t); len(names) > 0 {
			logged = append(logged, t)
		}
	}
	if len(logged) > 1 {
		return CheckLogFree(logged[1])
	}
	return nil
}

// isTier reports whether dir holds tier files of its own.
func isTier(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.kf[msw]")) // fails only on a bad pattern
	return len(files) > 0
}

// checkTier refuses tier directory dir if it holds a retired format.
func checkTier(dir string) error {
	if err := checkNoLogDir(dir); err != nil {
		return err
	}
	// Without an intact manifest nothing is retired: the open adopts
	// every file.
	m, err := ReadManifest(dir)
	switch {
	case errors.Is(err, ErrNeedsUpgrade):
		return fmt.Errorf("%s: %w", dir, err)
	case err != nil && !os.IsNotExist(err) && !errors.Is(err, ErrCorruptManifest):
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.kf[sw]")) // blk-*, seg-*, lvl-*, wal-*
	if err != nil {
		return err
	}
	for _, p := range paths {
		name := filepath.Base(p)
		if slices.Contains(m.Retired, name) {
			continue
		}
		if err := checkHeader(name, fileHeader(p)); errors.Is(err, ErrNeedsUpgrade) {
			return fmt.Errorf("%s: %w", dir, err)
		}
		// current, or corrupt: the open reports it
	}
	return nil
}

// fileHeader reads a file's first LogHeaderSize bytes, zeros where it
// has none.
func fileHeader(path string) []byte {
	head := make([]byte, LogHeaderSize)
	if f, err := os.Open(path); err == nil {
		_, _ = f.ReadAt(head, 0) // a short file leaves a header of zeros
		_ = f.Close()            // read-only
	}
	return head
}
