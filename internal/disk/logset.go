package disk

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"kflushing/internal/failpoint"
)

// LogSet is the registry of one write-ahead log's files, shared by every
// tier whose directories name them (Config.Logs): one open block per
// file, whichever tier's directory names it, and the one keeper of a
// drained file's life.
//
// The log lives in one directory, the set's. The tier in that directory
// — the home tier — carries the set's drained marks in its manifest
// commits and loads them back at open. Any other tier over the set — the
// spatial and user tiers of a multi-attribute store — keeps its own
// directories and manifest and resolves the log file names its
// directories carry in the set's directory.
//
// The log (wal.Options.Logs) reports to the set when a file leaves its
// replay set (Drain) and when it stops holding one (Release), and hands
// the set its view of what it holds once its replay has shown it
// (Track); every tier reports a file its directories stopped naming
// (remove). A drained file goes once a manifest commit carries its mark,
// the log does not hold it, and no tier keeps it (remove, the only
// unlink of a drained log file).
type LogSet struct {
	dir string

	// mu guards the fields below; it is taken with no tier lock held and
	// takes none inside.
	mu    sync.Mutex
	open  map[string]*block // valid while its references last (block.tryAcquire)
	tiers []logTier
	home  logTier
	// drained holds the log files the log no longer replays, each true
	// once a manifest commit carries it. held is the log's word on whether
	// it still needs a file on disk; until Track sets it, no drained file
	// is unlinked.
	drained map[string]bool
	held    func(seq uint32) bool
}

// logTier is a tier as the set sees it.
type logTier interface {
	// keepsLog reports whether the tier needs log file name on disk.
	keepsLog(name string) bool
	// commitMarks commits the home tier's manifest with the set's marks.
	commitMarks() error
}

// NewLogSet returns an empty registry for the log kept in dir.
func NewLogSet(dir string) *LogSet {
	return &LogSet{dir: filepath.Clean(dir), open: make(map[string]*block), drained: make(map[string]bool)}
}

// isHome reports whether a tier in dir is the set's home tier.
func (ls *LogSet) isHome(dir string) bool { return filepath.Clean(dir) == ls.dir }

// join enters a tier in dir once it has opened.
func (ls *LogSet) join(t logTier, dir string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.tiers = append(ls.tiers, t)
	if ls.isHome(dir) {
		ls.home = t
	}
}

// block returns log file name as a block with a reference for the
// caller: the one open block of the file while anything holds it, so
// every directory naming the file, in any tier, shares its handle and
// its record cache entries.
func (ls *LogSet) block(name string) (*block, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if b := ls.open[name]; b != nil && b.tryAcquire() {
		return b, nil
	}
	b, err := openBlock(filepath.Join(ls.dir, name))
	if err != nil {
		return nil, fmt.Errorf("disk: log file %s: %w", name, err)
	}
	ls.open[name] = b
	return b, nil
}

// Drained reports whether log file seq is drained: the log does not scan
// it at replay.
func (ls *LogSet) Drained(seq uint32) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	_, ok := ls.drained[LogName(seq)]
	return ok
}

// Drain marks log file seq drained — the log no longer replays it: every
// record it holds or references is in an installed segment, or listed
// by a reference page in a newer file. The home tier's next manifest
// commit carries the mark (a flush's install, a merge, Close); from then
// on the file is a record file of the tiers, never scanned by a replay.
// Until a commit carries it the file replays, which can only bring back
// records the tiers already hold, so a failure is logged, not returned.
func (ls *LogSet) Drain(seq uint32) {
	// The crash window this site names: every claim on the file is gone
	// and the directories naming its records installed, the mark not yet
	// committed. Recovery replays the file.
	if err := failpoint.Eval(failpoint.DiskDrainMark); err != nil {
		slog.Error("disk: cannot mark a log file drained", "file_seq", seq, "error", err)
		return
	}
	ls.mu.Lock()
	ls.drained[LogName(seq)] = false
	ls.mu.Unlock()
}

// Release is the log's word that it holds nothing of log file seq any
// more: drained and kept by no tier, the file goes now.
func (ls *LogSet) Release(seq uint32) {
	if _, err := ls.remove(LogName(seq)); err != nil {
		slog.Warn("disk: cannot remove a drained log file", "file_seq", seq, "error", err)
	}
}

// Track hands the set the log's view of its files — held reports whether
// memory still holds records a file holds, or a reference page the log
// replays reaches one — once the log's replay has shown it, and sweeps
// the drained files that view lets go (open rule 6); the home tier's
// manifest then heals its drained list down to the files left.
func (ls *LogSet) Track(held func(seq uint32) bool) {
	ls.mu.Lock()
	ls.held = held
	names := make([]string, 0, len(ls.drained))
	for name := range ls.drained {
		names = append(names, name)
	}
	home := ls.home
	ls.mu.Unlock()
	sort.Strings(names)
	swept := false
	for _, name := range names {
		gone, err := ls.remove(name)
		if err != nil {
			slog.Warn("disk: cannot remove a drained log file", "name", name, "error", err)
		}
		swept = swept || gone
	}
	if !swept || home == nil {
		return
	}
	if err := home.commitMarks(); err != nil {
		slog.Warn("disk: cannot commit the manifest after a drained-file sweep", "dir", ls.dir, "error", err)
	}
}

// marks returns the drained list a manifest commit in dir carries, and
// the marks among them no commit has carried yet: the set's marks in its
// home directory, none elsewhere.
func (ls *LogSet) marks(dir string) (names, fresh []string) {
	if !ls.isHome(dir) {
		return nil, nil
	}
	ls.mu.Lock()
	for name, committed := range ls.drained {
		names = append(names, name)
		if !committed {
			fresh = append(fresh, name)
		}
	}
	ls.mu.Unlock()
	sort.Strings(names)
	return names, fresh
}

// load takes back the drained list of the manifest of the tier in dir at
// its open: in the home directory, the names whose file is still there.
func (ls *LogSet) load(dir string, names []string) {
	if !ls.isHome(dir) {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, name := range names {
		if fileExists(filepath.Join(ls.dir, name)) {
			ls.drained[name] = true
		}
	}
}

// committed records that a manifest commit carried the fresh marks of
// names, and unlinks the files nothing keeps. What goes wrong past the
// commit does not fail it: a file left behind is deleted by the next
// sweep.
func (ls *LogSet) committed(names []string) {
	if len(names) == 0 {
		return
	}
	ls.mu.Lock()
	for _, name := range names {
		ls.drained[name] = true
	}
	ls.mu.Unlock()
	// The crash window this site names: the marks committed, the files
	// still there. Recovery neither replays them nor, while a directory
	// names one, deletes it.
	err := failpoint.Eval(failpoint.DiskDrainCommitted)
	for _, name := range names {
		if err == nil {
			_, err = ls.remove(name)
		}
	}
	if err != nil {
		slog.Warn("disk: cannot remove a drained log file", "dir", ls.dir, "error", err)
	}
}

// remove unlinks log file name if it is drained and nothing needs it: a
// manifest commit carries its mark, the log does not hold it (Track),
// and no tier keeps it (keepsLog) — no live directory names it, so every
// record it framed a merge found shadowed or none was ever flushed from
// it, no retired directory file that a manifest fallback would adopt is
// left, and no tier is closed. The log's word comes first: a flush names
// a file before it gives back its hold, so a file found unheld is named
// by every directory that will ever name it. Every tier calls it for a
// file its directories stopped naming. A file kept or left behind here
// goes in the next sweep (Track). It reports whether the file went.
func (ls *LogSet) remove(name string) (bool, error) {
	ls.mu.Lock()
	held, committed := ls.held, ls.drained[name]
	tiers := slices.Clone(ls.tiers)
	ls.mu.Unlock()
	if !committed || held == nil {
		return false, nil
	}
	if seq, _ := ParseLogName(name); held(seq) || slices.ContainsFunc(tiers, func(t logTier) bool { return t.keepsLog(name) }) {
		return false, nil
	}
	if err := unlink(unlinkDrained, filepath.Join(ls.dir, name)); err != nil && !os.IsNotExist(err) {
		return false, fmt.Errorf("disk: remove drained log file: %w", err)
	}
	ls.mu.Lock()
	delete(ls.drained, name)
	delete(ls.open, name)
	ls.mu.Unlock()
	return true, nil
}

// LogHome returns the directory the log file names of the tier in dir
// resolve in: dir itself when it holds a log file, otherwise the one
// sibling directory that does — a multi-attribute store keeps a single
// log in its first attribute's tier — and dir when there is none.
func LogHome(dir string) string {
	if names, _ := LogFileNames(dir); len(names) > 0 {
		return dir
	}
	logs, _ := filepath.Glob(filepath.Join(filepath.Dir(filepath.Clean(dir)), "*", "wal-*.kfw"))
	if len(logs) == 0 {
		return dir
	}
	home := filepath.Dir(logs[0])
	for _, p := range logs {
		if filepath.Dir(p) != home {
			return dir
		}
	}
	return home
}

// LogFileNames returns the log files directly under dir, oldest first.
func LogFileNames(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		if _, ok := ParseLogName(p); ok {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// CheckLogFree refuses, with ErrNeedsUpgrade, a tier directory that
// holds a log of its own although another tier owns the store's log:
// the layout before attributes shared one log.
func CheckLogFree(dir string) error {
	if names, _ := LogFileNames(dir); len(names) > 0 {
		return retired("disk: "+dir+" holds log files of its own, but the store keeps one log", roundUpgrade)
	}
	return nil
}
