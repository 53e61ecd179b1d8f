package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
)

// The support window (DESIGN.md §7.1): the retired formats this build's
// Upgrade converts, read only here — v4 blocks and v4 log files, each
// rewritten as the v5 record file of the same records, ordinals kept.
// Every older format is refused, naming the last commit whose upgrade
// converts it.
const (
	// roundUpgrade converts what the previous round's builds wrote: v3
	// directories, v3 log files, and one log per attribute.
	roundUpgrade = "b970d80"
	// olderUpgrade converts every format before those (v3 blocks, v2
	// segment files, version-1 and -2 manifests and log files, a log in
	// <dir>/wal) straight to the v4 ones.
	olderUpgrade = "ff40e7c"

	// logVersionV3 and segVersionV3 are the previous round's versions:
	// refused naming roundUpgrade, and anything older naming
	// olderUpgrade.
	logVersionV3 = 3
	segVersionV3 = 3

	// recordVersionV4 is the version of the blocks and log files this
	// build's Upgrade converts. A v4 block is KFBK | u16 4 | u16 offset
	// width (4 or 8) | u32 count | records | count offsets | u64
	// offsetsPos | "KFBE"; a v4 log file is KFWL | u16 4 | frames, each
	// u32 length | u32 CRC32C | payload — one record, a reference list
	// (a v5 reference page's payload), or, last in a sealed file, the
	// frame index 0xFF | count × u32 record frame offset | u32 count |
	// "KFWX".
	recordVersionV4   = 4
	blkHeaderSizeV4   = 4 + 2 + 2 + 4
	blkFooterSizeV4   = 8 + 4
	blkEndMagicV4     = "KFBE"
	frameIndexMagicV4 = "KFWX"
)

// ErrNeedsUpgrade reports a file this build no longer reads — an older
// version of a known file kind, a log in <dir>/wal, or a log kept in an
// attribute's own directory. The error wrapping it names the file, and
// either this build's offline upgrade, which converts it, or the commit
// whose upgrade does.
var ErrNeedsUpgrade = errors.New("retired file format")

// needsUpgrade is ErrNeedsUpgrade for what, which this build's Upgrade
// converts.
func needsUpgrade(what string) error {
	return fmt.Errorf("%s: %w: run this build's `kflushctl upgrade <dir>` on the store directory first", what, ErrNeedsUpgrade)
}

// retired is ErrNeedsUpgrade for what, which the upgrade built at
// commit converts.
func retired(what, commit string) error {
	return fmt.Errorf("%s: %w: run `kflushctl upgrade <dir>` built at commit %s on the store directory, then this build's",
		what, ErrNeedsUpgrade, commit)
}

// checkVersion accepts the one version a reader of kind knows for the
// file name. An older one from window on is this build's to upgrade, one
// from round on the previous round's, one older still older; any other
// is corruption.
func checkVersion(name, kind string, got, want, window, round uint16) error {
	what := fmt.Sprintf("%s is %s version %d", name, kind, got)
	switch {
	case got == want:
		return nil
	case got >= window && got < want:
		return needsUpgrade(what)
	case got >= round && got < want:
		return retired(what, roundUpgrade)
	case got > 0 && got < round:
		return retired(what, olderUpgrade)
	}
	return fmt.Errorf("%s: %w", what, ErrCorrupt)
}

// checkHeader checks the magic and version leading the tier file name,
// head its first HeaderSize bytes.
func checkHeader(name string, head []byte) error {
	version := binary.LittleEndian.Uint16(head[4:])
	switch string(head[:4]) {
	case blkMagic:
		return checkVersion(name, "block", version, blkVersion, recordVersionV4, recordVersionV4)
	case segMagic:
		return checkVersion(name, "directory", version, segVersion, segVersion, segVersionV3)
	case LogMagic:
		return CheckLogVersion(name, version)
	}
	return fmt.Errorf("%s: %w", name, ErrCorrupt)
}

// CheckLogVersion checks the version of log file name: nil for
// LogVersion, ErrNeedsUpgrade for an older one, ErrCorrupt otherwise.
func CheckLogVersion(name string, version uint16) error {
	return checkVersion(name, "log file", version, LogVersion, recordVersionV4, logVersionV3)
}

// checkNoLogDir refuses a directory holding <dir>/wal, where the builds
// before the log became the record store kept it.
func checkNoLogDir(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return retired(filepath.Join(dir, "wal")+" holds a log", olderUpgrade)
	}
	return nil
}

// Upgrade converts a store directory — one tier's, or a data directory
// holding one tier per attribute — offline, to the formats this build
// writes: every v4 block and v4 log file becomes the v5 record file of
// the same records at the same ordinals, so directories, manifests, the
// log's reference pages and every claim on it stay as they are. Each
// file is staged, fsynced, renamed over the original and its directory
// fsynced, so a cut upgrade leaves each file whole in one format or the
// other, and the next Upgrade completes it. A directory holding a format
// older than the window is refused, before any file changes, naming the
// file and the commit whose upgrade converts it: a tier file of an older
// version, a log in <tier>/wal, or logs in more than one tier of a data
// directory (the store keeps one log). Files the manifest retires are
// left to the next open. A directory in current formats is left as it
// is.
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
	var logged, convert []string
	for _, t := range tiers {
		paths, err := checkTier(t)
		if err != nil {
			return fmt.Errorf("disk: %w", err)
		}
		convert = append(convert, paths...)
		if names, _ := LogFileNames(t); len(names) > 0 {
			logged = append(logged, t)
		}
	}
	if len(logged) > 1 {
		return CheckLogFree(logged[1])
	}
	for _, p := range convert {
		if err := convertV4(p); err != nil {
			return fmt.Errorf("disk: upgrade %s: %w", filepath.Base(p), err)
		}
	}
	if len(convert) > 0 {
		slog.Info("disk: upgraded record files to version 5", "dir", dir, "files", len(convert))
	}
	return nil
}

// isTier reports whether dir holds tier files of its own.
func isTier(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.kf[msw]")) // fails only on a bad pattern
	return len(files) > 0
}

// checkTier refuses tier directory dir if it holds a format older than
// the window, and returns the files the window's converters rewrite.
func checkTier(dir string) ([]string, error) {
	if err := checkNoLogDir(dir); err != nil {
		return nil, err
	}
	// Without an intact manifest nothing is retired: the open adopts
	// every file.
	m, err := ReadManifest(dir)
	switch {
	case errors.Is(err, ErrNeedsUpgrade):
		return nil, fmt.Errorf("%s: %w", dir, err)
	case err != nil && !os.IsNotExist(err) && !errors.Is(err, ErrCorruptManifest):
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.kf[sw]")) // blk-*, seg-*, lvl-*, wal-*
	if err != nil {
		return nil, err
	}
	var convert []string
	for _, p := range paths {
		name := filepath.Base(p)
		if slices.Contains(m.Retired, name) {
			continue
		}
		head := fileHeader(p)
		if err := checkHeader(name, head); !errors.Is(err, ErrNeedsUpgrade) {
			continue // current, or corrupt: the open reports it
		}
		if binary.LittleEndian.Uint16(head[4:]) != recordVersionV4 || string(head[:4]) == segMagic {
			return nil, fmt.Errorf("%s: %w", dir, checkHeader(name, head))
		}
		convert = append(convert, p)
	}
	return convert, nil
}

// fileHeader reads a file's first HeaderSize bytes, zeros where it has
// none.
func fileHeader(path string) []byte {
	head := make([]byte, HeaderSize)
	if f, err := os.Open(path); err == nil {
		_, _ = f.ReadAt(head, 0) // a short file leaves a header of zeros
		_ = f.Close()            // read-only
	}
	return head
}

// convertV4 rewrites the v4 block or log file at path as v5, in place.
func convertV4(path string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var out []byte
	if string(img[:4]) == blkMagic {
		out, err = convertBlockV4(img)
	} else {
		seq, _ := ParseLogName(path)
		out, err = convertLogV4(img, seq)
	}
	if err != nil {
		return err
	}
	st, err := stageFile(path, flushedBlock, out)
	if err != nil {
		return err
	}
	if err := st.install(); err != nil {
		_ = os.Remove(st.tmpPath) // not discard: the final name is the original
		return err
	}
	return nil
}

// v4Record checks that rec is exactly one record and returns it.
func v4Record(rec []byte) ([]byte, error) {
	if _, n, err := decodeRecord(rec); err != nil || n != len(rec) {
		return nil, ErrCorrupt
	}
	return rec, nil
}

// convertBlockV4 returns the v5 image of v4 block image img: the same
// records in the same order, packed into pages.
func convertBlockV4(img []byte) ([]byte, error) {
	le := binary.LittleEndian
	size := uint64(len(img))
	if size < blkHeaderSizeV4+blkFooterSizeV4 || string(img[size-4:]) != blkEndMagicV4 {
		return nil, ErrCorrupt
	}
	width, count := uint64(le.Uint16(img[6:])), uint64(le.Uint32(img[8:]))
	end := le.Uint64(img[size-blkFooterSizeV4:])
	if width != 4 && width != 8 || end < blkHeaderSizeV4 || end > size || end+width*count != size-blkFooterSizeV4 {
		return nil, ErrCorrupt
	}
	recs := make([][]byte, count)
	for i := range recs {
		next := func(i uint64) uint64 {
			if i == count {
				return end
			}
			if width == 4 {
				return uint64(le.Uint32(img[end+4*i:]))
			}
			return le.Uint64(img[end+8*i:])
		}
		from, to := next(uint64(i)), next(uint64(i)+1)
		if from < blkHeaderSizeV4 || from > to || to > end {
			return nil, ErrCorrupt
		}
		var err error
		if recs[i], err = v4Record(img[from:to]); err != nil {
			return nil, err
		}
	}
	out := binary.LittleEndian.AppendUint16([]byte(blkMagic), blkVersion)
	var x PageIndex
	out = appendPages(out, len(recs), &x, func(buf []byte, i int) []byte { return append(buf, recs[i]...) })
	return AppendPageIndex(out, &x), nil
}

// convertLogV4 returns the v5 image of v4 log file image img, file seq:
// its records packed into pages in order, each reference frame a
// reference page where it stood, and the index when the file was
// sealed. A frame torn by the end of the file — a crash tail — is left
// out, as replay would cut it away.
func convertLogV4(img []byte, seq uint32) ([]byte, error) {
	le := binary.LittleEndian
	out := AppendLogHeader(nil)
	var x PageIndex
	var run [][]byte // records not yet paged
	flush := func() {
		out = appendPages(out, len(run), &x, func(buf []byte, i int) []byte { return append(buf, run[i]...) })
		run = run[:0]
	}
	for pos := HeaderSize; pos < len(img); {
		if pos+PageHeaderSize > len(img) || uint64(le.Uint32(img[pos:])) > uint64(len(img)-pos-PageHeaderSize) {
			break // torn
		}
		payload, ok := CheckPage(img[pos:])
		next := pos + PageHeaderSize + len(payload)
		if !ok {
			if next == len(img) {
				break // the crash tail's last frame
			}
			return nil, fmt.Errorf("frame at offset %d: %w", pos, ErrCorrupt)
		}
		switch {
		case IsPageIndex(payload):
			n := uint64(len(payload))
			if n < 9 || string(payload[n-4:]) != frameIndexMagicV4 || next != len(img) ||
				uint64(le.Uint32(payload[n-8:])) != uint64(x.Records)+uint64(len(run)) || n != 9+4*uint64(x.Records+uint32(len(run))) {
				return nil, fmt.Errorf("frame index: %w", ErrCorrupt)
			}
			flush()
			return AppendPageIndex(out, &x), nil
		case IsReferences(payload):
			if _, ok := DecodeReferences(payload, seq); !ok {
				return nil, fmt.Errorf("reference frame at offset %d: %w", pos, ErrCorrupt)
			}
			flush()
			start := len(out)
			out = append(append(out, 0, 0, 0, 0, 0, 0, 0, 0), payload...)
			sealPage(out[start:])
			x.Add(uint64(start), 0)
		default:
			rec, err := v4Record(payload)
			if err != nil {
				return nil, fmt.Errorf("frame at offset %d: %w", pos, err)
			}
			run = append(run, rec)
		}
		pos = next
	}
	flush()
	return out, nil
}
