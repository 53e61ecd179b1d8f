package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// The support window (DESIGN.md §7.1): the retired formats this build's
// Upgrade converts, read only here. A v3 log file is a v4 one that holds
// no reference frame; a v3 directory is a v4 directory whose key section
// is u32 nkeys, then per key u16 keyLen | key | u32 n | n × u32 posting.
// Every older format is refused with the commit whose upgrade reads it.
const (
	logVersionV3 = 3
	segVersionV3 = 3

	// upgradedBy is the last commit whose `kflushctl upgrade` converts
	// the formats older than the window.
	upgradedBy = "ff40e7c"
)

// ErrNeedsUpgrade reports a file this build no longer reads — an older
// version of a known file kind, or a log in <dir>/wal. The error wrapping
// it names the file, and either this build's offline upgrade, which
// converts it, or the commit whose upgrade does.
var ErrNeedsUpgrade = errors.New("retired file format")

// errBeforeWindow marks an ErrNeedsUpgrade this build's upgrade cannot
// resolve.
var errBeforeWindow = errors.New("older than this build's upgrade reads")

// needsUpgrade is ErrNeedsUpgrade for what, which Upgrade converts.
func needsUpgrade(what string) error {
	return fmt.Errorf("%s: %w: run `kflushctl upgrade <dir>` on the store directory first", what, ErrNeedsUpgrade)
}

// beforeWindow is ErrNeedsUpgrade for what, which only an older build's
// upgrade converts.
func beforeWindow(what string) error {
	return fmt.Errorf("%s: %w, %w: run `kflushctl upgrade <dir>` built at commit %s first, then this build's",
		what, ErrNeedsUpgrade, errBeforeWindow, upgradedBy)
}

// checkVersion accepts the one version a reader of kind knows for the
// file name. An older one from oldest on needs the upgrade, one older
// still an older build's; any other is corruption.
func checkVersion(name, kind string, got, want, oldest uint16) error {
	what := fmt.Sprintf("%s is %s version %d", name, kind, got)
	switch {
	case got == want:
		return nil
	case got >= oldest && got < want:
		return needsUpgrade(what)
	case got > 0 && got < oldest:
		return beforeWindow(what)
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
// before the log became the record store kept it: a format older than
// the window.
func checkNoLogDir(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return beforeWindow(filepath.Join(dir, "wal") + " holds a log")
	}
	return nil
}

// Upgrade rewrites the tier files under dir that a build of the support
// window wrote in current formats, offline, each in place: a v3
// directory as a v4 one, its key section re-encoded and every other byte
// kept; a v3 log file as v4, only its header's version changed, so its
// frames, its index and every ordinal a directory posts stay byte for
// byte. Each file is staged, fsynced, renamed, its directory fsynced, so
// a cut upgrade leaves a directory the next Upgrade completes. A
// directory holding anything older than the window is refused whole,
// before any file changes; files the manifest retires are left to the
// next open, and a directory in current formats is left as it is.
func Upgrade(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	if err := checkNoLogDir(dir); err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	// Without an intact manifest nothing is retired: the open adopts
	// every file.
	m, err := ReadManifest(dir)
	switch {
	case errors.Is(err, ErrNeedsUpgrade):
		return fmt.Errorf("disk: %s: %w", dir, err)
	case err != nil && !os.IsNotExist(err) && !errors.Is(err, ErrCorruptManifest):
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.kf[sw]")) // blk-*, seg-*, lvl-*, wal-*
	if err != nil {
		return err
	}
	var dirs, logs []string
	for _, p := range paths {
		name := filepath.Base(p)
		if slices.Contains(m.Retired, name) {
			continue
		}
		head := fileHeader(p)
		switch err := checkHeader(name, head); {
		case errors.Is(err, errBeforeWindow):
			return fmt.Errorf("disk: %s: %w", dir, err)
		case !errors.Is(err, ErrNeedsUpgrade):
			// current, or corrupt: the open reports it
		case string(head[:4]) == LogMagic:
			logs = append(logs, p)
		default:
			dirs = append(dirs, p)
		}
	}
	for _, p := range dirs {
		if err := rewriteDirectory(p); err != nil {
			return err
		}
	}
	for _, p := range logs {
		if err := rewriteLogHeader(p); err != nil {
			return err
		}
	}
	if len(dirs)+len(logs) > 0 {
		slog.Info("disk: upgraded tier directory", "dir", dir, "directories", len(dirs), "log_files", len(logs))
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

// replaceFile atomically replaces path with data through the staging
// protocol. A failure leaves the original file.
func replaceFile(path string, kind stageKind, data []byte) error {
	st, err := stageFile(path, kind, data)
	if err != nil {
		return err
	}
	if err := st.install(); err != nil {
		_ = os.Remove(st.tmpPath) // not discard: the final name is the original
		return err
	}
	return nil
}

// rewriteLogHeader rewrites the v3 log file at path as v4, in place: the
// same bytes under the current header.
func rewriteLogHeader(path string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(img[4:], LogVersion)
	return replaceFile(path, flushedBlock, img)
}

// rewriteDirectory rewrites the v3 directory at path as v4, in place: the
// header, block table, Bloom filter and footer are copied, the key
// section is re-encoded, and the footer's bloomPos moves with it. The
// block table's record counts bound the postings; the blocks themselves
// are not opened.
func rewriteDirectory(path string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	corrupt := fmt.Errorf("disk: upgrade %s: %w", filepath.Base(path), ErrCorrupt)
	size, le := len(img), binary.LittleEndian
	if size < segHeaderSize+segFooterSize || string(img[size-4:]) != segEndMagic {
		return corrupt
	}
	foot := img[size-segFooterSize:]
	keysPos, bloomPos := le.Uint64(foot[0:]), le.Uint64(foot[8:])
	if keysPos < segHeaderSize || keysPos > bloomPos || bloomPos > uint64(size-segFooterSize) {
		return corrupt
	}
	table := recReader{b: img[:keysPos], pos: segHeaderSize}
	var limit uint64
	for n := table.u32(); n > 0 && !table.bad; n-- {
		table.take(uint64(table.u16()))
		limit += uint64(table.u32())
	}
	if table.bad || limit > math.MaxUint32 {
		return corrupt
	}
	keys, start, posts, err := decodeKeysV3(img[keysPos:bloomPos], uint32(limit))
	if err != nil {
		return corrupt
	}
	out := append([]byte(nil), img[:keysPos]...)
	le.PutUint16(out[4:], segVersion)
	out = appendKeys(out, keys, start, posts)
	newBloomPos := uint64(len(out))
	out = append(out, img[bloomPos:]...)
	le.PutUint64(out[len(out)-segFooterSize+8:], newBloomPos)
	return replaceFile(path, mergedDir, out)
}

// decodeKeysV3 parses a v3 key section into resident form, with the
// checks the v4 reader makes of its content: keys strictly ascending
// (v3 readers let equal neighbours pass, though no writer produced
// them), every posting below limit, no list posting one ordinal twice in
// a row.
func decodeKeysV3(b []byte, limit uint32) (keys []string, start, posts []uint32, err error) {
	r := recReader{b: b}
	// Each key takes at least 6 bytes: a count that cannot fit is a
	// hostile length field, rejected before any allocation.
	nkeys := int(r.u32())
	if r.bad || nkeys > (len(b)-4)/6 {
		return nil, nil, nil, ErrCorrupt
	}
	start = make([]uint32, 1, nkeys+1)
	posts = make([]uint32, 0, (len(b)-4-6*nkeys)/4)
	ends := make([]int, 0, nkeys)
	var keyBytes []byte
	for i := 0; i < nkeys && !r.bad; i++ {
		keyBytes = append(keyBytes, r.take(uint64(r.u16()))...)
		ends = append(ends, len(keyBytes))
		n := int(r.u32())
		r.bad = r.bad || n > (len(b)-r.pos)/4
		for j := 0; j < n && !r.bad; j++ {
			p := r.u32()
			r.bad = r.bad || p >= limit || j > 0 && p == posts[len(posts)-1]
			posts = append(posts, p)
		}
		start = append(start, uint32(len(posts)))
	}
	if r.bad {
		return nil, nil, nil, ErrCorrupt
	}
	all := string(keyBytes)
	keys = make([]string, nkeys)
	from := 0
	for i, to := range ends {
		keys[i] = all[from:to]
		from = to
		if i > 0 && keys[i-1] >= keys[i] {
			return nil, nil, nil, ErrCorrupt
		}
	}
	return keys, start, posts, nil
}
