package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// LogSet is the registry of one write-ahead log's files, shared by every
// tier whose directories name them (Config.Logs): one open block per
// file, whichever tier's directory names it, and the rule for unlinking
// a drained one.
//
// The log lives in one directory, the set's, which is the Dir of the
// tier that owns it. Any other tier over the set — the spatial and user
// tiers of a multi-attribute store — keeps its own directories and
// manifest, resolves the log file names its directories carry in the
// owner's directory, holds no log file and no drained mark of its own,
// and never unlinks a log file: when its last name of one goes it tells
// the owner, which unlinks a drained file only when the log holds
// nothing of it and no tier names it.
type LogSet struct {
	dir string

	// mu guards the registry; it is taken with no tier lock held and
	// takes none inside.
	mu    sync.Mutex
	open  map[string]*block // valid while its references last (block.tryAcquire)
	owner logOwner
	tiers []logNamer
}

// logNamer is a tier as the set sees it: whether it needs a log file to
// stay on disk.
type logNamer interface {
	keepsLog(name string) bool
}

// logOwner is the tier that owns the log: the one that unlinks.
type logOwner interface {
	logNamer
	removeDrained(name string) error
}

// NewLogSet returns an empty registry for the log kept in dir.
func NewLogSet(dir string) *LogSet {
	return &LogSet{dir: filepath.Clean(dir), open: make(map[string]*block)}
}

// owns reports whether a tier over dir owns the log.
func (ls *LogSet) owns(dir string) bool { return filepath.Clean(dir) == ls.dir }

// join enters a tier; the owner is the one whose directory is the log's.
func (ls *LogSet) join(t logNamer, owner bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.tiers = append(ls.tiers, t)
	if owner {
		ls.owner = t.(logOwner)
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

// forget drops an unlinked file from the registry.
func (ls *LogSet) forget(name string) {
	ls.mu.Lock()
	delete(ls.open, name)
	ls.mu.Unlock()
}

// keptElsewhere reports whether a tier other than self needs log file
// name on disk: one of its live directories names it, or a directory
// file it may still adopt does, or it is closed and cannot say.
func (ls *LogSet) keptElsewhere(self logNamer, name string) bool {
	ls.mu.Lock()
	tiers := append([]logNamer(nil), ls.tiers...)
	ls.mu.Unlock()
	for _, t := range tiers {
		if t != self && t.keepsLog(name) {
			return true
		}
	}
	return false
}

// unnamed is a non-owner tier's word that none of its directories names
// log file name any more: the owner unlinks it if nothing else keeps it.
func (ls *LogSet) unnamed(name string) error {
	ls.mu.Lock()
	owner := ls.owner
	ls.mu.Unlock()
	if owner == nil {
		return nil // an offline reader: nothing is ever unlinked
	}
	return owner.removeDrained(name)
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
		return fmt.Errorf("disk: %s holds log files of its own, but the store keeps one log: %w", dir, ErrNeedsUpgrade)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return fmt.Errorf("disk: %s holds a log: %w", filepath.Join(dir, "wal"), ErrNeedsUpgrade)
	}
	return nil
}
