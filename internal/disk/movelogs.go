package disk

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"kflushing/internal/failpoint"
)

// MoveLogs hands the log files of tier directory from, every one of them
// drained, to the log kept in directory to: offline, the step that turns
// a store whose attributes kept one log each into one whose attributes
// share one. Each file gets a fresh sequence number, past every log file
// name either directory holds or lists, which to's manifest lists
// drained before the file is linked into to under it; then every
// directory file of from naming it
// is re-pointed at the new name (its block table rewritten through the
// stage/fsync/rename helper, every other byte kept); then the old names
// go, with from's drained marks. A file of from that still replays is
// refused: its records must be posted first.
//
// Each step leaves a state the next call completes, and a completed move
// is a no-op: an old file already linked is recognized by its inode, the
// new names exceed every old one so a directory names one or the other
// unambiguously, and a directory re-pointed once names nothing to move.
func MoveLogs(from, to string) error {
	names, err := LogFileNames(from)
	if err != nil || len(names) == 0 {
		return err
	}
	fm, err := ReadManifest(from)
	if err != nil {
		return fmt.Errorf("disk: move logs of %s: %w", from, err)
	}
	for _, name := range names {
		if !slices.Contains(fm.Drained, name) {
			return fmt.Errorf("disk: move logs of %s: %s still replays", from, name)
		}
	}
	tm, err := ReadManifest(to)
	if err != nil {
		return fmt.Errorf("disk: move logs to %s: %w", to, err)
	}
	held, err := LogFileNames(to)
	if err != nil {
		return err
	}
	var next uint32
	for _, name := range append(append(append([]string(nil), held...), tm.Drained...), names...) {
		if seq, ok := ParseLogName(name); ok {
			next = max(next, seq)
		}
	}
	// Every log file an attribute of the store holds bounds the new
	// names: a directory must never name an old file and a new one alike.
	siblings, _ := filepath.Glob(filepath.Join(filepath.Dir(filepath.Clean(from)), "*", "wal-*.kfw"))
	for _, p := range siblings {
		if seq, ok := ParseLogName(p); ok {
			next = max(next, seq)
		}
	}
	// The new names are listed drained before any file takes one: a log
	// file in to that replayed would be read as to's own.
	moved := make(map[string]string, len(names))
	for _, name := range names {
		if linked := linkedAs(filepath.Join(from, name), to, held); linked != "" {
			moved[name] = linked
		} else {
			next++
			moved[name] = LogName(next)
		}
		if !slices.Contains(tm.Drained, moved[name]) {
			tm.Drained = append(tm.Drained, moved[name])
		}
	}
	slices.Sort(tm.Drained)
	if err := writeManifest(to, tm); err != nil {
		return err
	}
	for _, name := range names {
		if slices.Contains(held, moved[name]) {
			continue
		}
		if err := failpoint.Eval(failpoint.DiskSegmentRename); err != nil {
			return err
		}
		if err := os.Link(filepath.Join(from, name), filepath.Join(to, moved[name])); err != nil {
			return fmt.Errorf("disk: move log %s: %w", name, err)
		}
	}
	if err := SyncDir(to); err != nil {
		return err
	}
	segPaths, lvlPaths, err := segmentGlobs(from)
	if err != nil {
		return err
	}
	for _, p := range append(segPaths, lvlPaths...) {
		if err := renameBlocks(p, moved); err != nil {
			return err
		}
	}
	for _, name := range names {
		if err := failpoint.Eval(failpoint.DiskCompactRemove); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(from, name)); err != nil {
			return fmt.Errorf("disk: move log %s: %w", name, err)
		}
	}
	if err := SyncDir(from); err != nil {
		return err
	}
	fm.Drained = nil
	return writeManifest(from, fm)
}

// linkedAs returns the name under which file path is already linked into
// dir, among names, or "".
func linkedAs(path, dir string, names []string) string {
	st, err := os.Stat(path)
	if err != nil {
		return ""
	}
	for _, name := range names {
		if other, err := os.Stat(filepath.Join(dir, name)); err == nil && os.SameFile(st, other) {
			return name
		}
	}
	return ""
}

// renameBlocks rewrites the block table of directory file path, naming
// each file of rename by its new name; a directory naming none of them
// is left alone. Log file names have one length, so every offset stands.
func renameBlocks(path string, rename map[string]string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	corrupt := fmt.Errorf("disk: re-point %s: %w", filepath.Base(path), ErrCorrupt)
	if len(img) < segHeaderSize+segFooterSize || string(img[:4]) != segMagic {
		return corrupt
	}
	keysPos := binary.LittleEndian.Uint64(img[len(img)-segFooterSize:])
	if keysPos < segHeaderSize || keysPos > uint64(len(img)) {
		return corrupt
	}
	table := recReader{b: img[:keysPos], pos: segHeaderSize}
	changed := false
	for n := table.u32(); n > 0 && !table.bad; n-- {
		at := table.pos + 2
		name := string(table.take(uint64(table.u16())))
		table.u32()
		if to, ok := rename[name]; ok && !table.bad {
			if len(to) != len(name) {
				return corrupt
			}
			copy(img[at:], to)
			changed = true
		}
	}
	if table.bad {
		return corrupt
	}
	if !changed {
		return nil
	}
	return replaceFile(path, mergedDir, img)
}
