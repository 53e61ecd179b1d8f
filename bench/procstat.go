package bench

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has consumed, from
// /proc/<pid>/stat. The store may live in a child process, so the
// harness reads the same source for itself and for kflushd.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procstat: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("procstat: short stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procstat: bad cpu fields for pid %d", pid)
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// selfCPU is the harness's own CPU time at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procPeakRSS returns VmHWM, the peak resident set of a process, in
// bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("procstat: no VmHWM for pid %d", pid)
}

// dirUsage is the current size of a data directory, split into
// write-ahead-log files and everything else (segments, manifests).
type dirUsage struct{ wal, tier int64 }

func (u dirUsage) total() int64 { return u.wal + u.tier }

// isWAL reports whether a path under the data dir belongs to a
// write-ahead log: every attribute system keeps its log in a directory
// named "wal".
func isWAL(rel string) bool {
	return strings.Contains(string(filepath.Separator)+rel, string(filepath.Separator)+"wal"+string(filepath.Separator))
}

// writeMeter estimates bytes written under a data directory from the
// outside, by sampling file sizes. A file is identified by its path
// less any staging suffix, so a segment staged as seg-N.kfs.tmp and
// renamed into place is counted once; each file contributes the largest
// size it was ever seen at, so compaction rewrites count in full even
// after their inputs are unlinked. A file that shrinks is a new file
// under an old name and starts a new count. A file created and removed
// between two samples is missed, which at 10 Hz against segments that
// live for seconds is a small, stable loss.
type writeMeter struct {
	dir  string
	seen map[string]int64 // canonical path -> size last seen; files only grow
	done dirUsage         // files replaced under the same name
	now  dirUsage
}

func newWriteMeter(dir string) *writeMeter {
	return &writeMeter{dir: dir, seen: map[string]int64{}}
}

// canonical strips the suffixes the store stages files under.
func canonical(rel string) string {
	for _, suffix := range []string{".tmp", ".compact"} {
		rel = strings.TrimSuffix(rel, suffix)
	}
	return rel
}

func (u *dirUsage) add(rel string, size int64) {
	if isWAL(rel) {
		u.wal += size
	} else {
		u.tier += size
	}
}

// sample walks the directory once.
func (m *writeMeter) sample() {
	var now dirUsage
	_ = filepath.WalkDir(m.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish under a running store; skip them
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(m.dir, path)
		if err != nil {
			return nil
		}
		size := info.Size()
		now.add(rel, size)
		key := canonical(rel)
		if prev := m.seen[key]; size < prev {
			m.done.add(key, prev) // a new file under an old name
		}
		m.seen[key] = size
		return nil
	})
	m.now = now
}

// written returns the cumulative bytes written so far.
func (m *writeMeter) written() dirUsage {
	w := m.done
	for key, size := range m.seen {
		w.add(key, size)
	}
	return w
}

// calKernel is a fixed map-and-multiply kernel of roughly 0.3 s on the
// reference box. Its time before and after the measured phase lets a
// reader see a slow moment of the shared machine.
func calKernel() time.Duration {
	start := time.Now()
	m := make(map[uint32]uint32, 1<<12)
	x := uint32(2463534242)
	for i := 0; i < 18_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x&(1<<12-1)] += x * 2654435761
	}
	calSink = m[0]
	return time.Since(start)
}

// calSink keeps the kernel's result alive so the loop is not removed.
var calSink uint32

// copyDir copies a data directory the way a crash would leave it: every
// byte the store has handed to the operating system, nothing it still
// buffers itself. With withWAL false the write-ahead logs are left out,
// which is the disk tier alone.
func copyDir(src, dst string, withWAL bool) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !withWAL && d.IsDir() && d.Name() == "wal" {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil // retired by a compaction that finished mid-walk
			}
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
