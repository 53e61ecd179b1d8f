//go:build failpoint

package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"kflushing/internal/failpoint"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

func newFaultTier(t *testing.T, retry RetryPolicy) *Tier[string] {
	t.Helper()
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	tier, err := Open(Config[string]{
		Dir:        t.TempDir(),
		KeysOf:     func(m *types.Microblog) []string { return m.Keywords },
		Encode:     func(s string) string { return s },
		CacheBytes: -1, // no read cache: every search preads
		Retry:      retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// TestPreadRetriedOnce arms a single record-read fault: with a
// one-retry policy the search succeeds transparently; the hit counter
// proves the failpoint actually fired.
func TestPreadRetriedOnce(t *testing.T) {
	tier := newFaultTier(t, RetryPolicy{Attempts: 1})
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a"), fr(2, 2, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.DiskPread, "error(1)"); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]string{"a"}, query.OpSingle, 5)
	if err != nil {
		t.Fatalf("search with one pread fault and retry: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if hits := failpoint.Hits(failpoint.DiskPread); hits < 2 {
		t.Fatalf("pread evaluated %d times, want >= 2 (1 failure + retry)", hits)
	}
}

// TestPreadFaultSurfacesWithoutRetry is the control: the same fault with
// retries disabled must surface as an injected error.
func TestPreadFaultSurfacesWithoutRetry(t *testing.T) {
	tier := newFaultTier(t, RetryPolicy{})
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.DiskPread, "error(1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Search([]string{"a"}, query.OpSingle, 5); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("search error = %v, want injected", err)
	}
}

// TestSegmentWriteLeavesNoPartialFiles verifies the atomic-write
// protocol of the two-file flush: a fault at any stage — staging either
// file, either rename, the window between them, the install — fails the
// flush with neither a block nor a directory under a final name, and at
// most staged temp files that the next Open removes as orphans. Torn
// writes cut the block and the directory short independently.
func TestSegmentWriteLeavesNoPartialFiles(t *testing.T) {
	cfg := func(dir string) Config[string] {
		return Config[string]{
			Dir:    dir,
			KeysOf: func(m *types.Microblog) []string { return m.Keywords },
			Encode: func(s string) string { return s },
		}
	}
	for _, tc := range []struct{ site, action string }{
		{failpoint.DiskSegmentCreate, "error"},
		{failpoint.DiskSegmentCreate, "errevery(2)"}, // the directory's create, after the block staged
		{failpoint.DiskSegmentWrite, "error"},
		{failpoint.DiskSegmentWrite, "torn(40)"},
		{failpoint.DiskSegmentDirWrite, "error"},
		{failpoint.DiskSegmentDirWrite, "torn(40)"},
		{failpoint.DiskSegmentSync, "error"},
		{failpoint.DiskSegmentRename, "error"},
		{failpoint.DiskSegmentRename, "errevery(2)"}, // the directory's rename, the block already live
		{failpoint.DiskBlockAfterRename, "error"},
		{failpoint.DiskSegmentAfterRename, "error"},
		{failpoint.DiskLevelInstall, "error"},
		{failpoint.DiskManifestRename, "error"},
	} {
		t.Run(filepath.Base(tc.site)+"="+tc.action, func(t *testing.T) {
			failpoint.DisableAll()
			t.Cleanup(failpoint.DisableAll)
			dir := t.TempDir()
			tier, err := Open(cfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := failpoint.Enable(tc.site, tc.action); err != nil {
				t.Fatal(err)
			}
			if err := tier.Flush([]FlushRecord{fr(1, 1, "a")}); err == nil {
				t.Fatal("flush succeeded despite injected fault")
			}
			if failpoint.Hits(tc.site) == 0 {
				t.Fatalf("%s never evaluated", tc.site)
			}
			failpoint.DisableAll()
			if got := tier.Stats(); got.Segments != 0 || got.Blocks != 0 {
				t.Fatalf("failed flush left %d segments over %d blocks in the tier", got.Segments, got.Blocks)
			}
			if err := tier.Close(); err != nil {
				t.Fatal(err)
			}
			for _, pattern := range []string{"blk-*.kfs", "seg-*.kfs"} {
				if live, err := filepath.Glob(filepath.Join(dir, pattern)); err != nil || len(live) != 0 {
					t.Fatalf("failed flush left final-named files %v (err %v)", live, err)
				}
			}
			// A reopen clears any staged temp file left behind, and the
			// tier takes the same flush cleanly.
			tier, err = Open(cfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer tier.Close()
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != manifestName {
					t.Fatalf("file %s survived a failed flush and a reopen", e.Name())
				}
			}
			if err := tier.Flush([]FlushRecord{fr(1, 1, "a")}); err != nil {
				t.Fatal(err)
			}
			if items, err := tier.Search([]string{"a"}, query.OpSingle, 5); err != nil || len(items) != 1 {
				t.Fatalf("search after the retried flush: %d items, err=%v", len(items), err)
			}
		})
	}
}

// TestMergeFaultsLeaveInputsIntact is the merge's half of the staging
// protocol: a fault anywhere before the manifest commit fails the pass
// with the inputs still live and searchable, no lvl-* file under a final
// name, the record blocks untouched, and the next pass succeeding.
func TestMergeFaultsLeaveInputsIntact(t *testing.T) {
	for _, tc := range []struct{ site, action string }{
		{failpoint.DiskSegmentCreate, "error"},
		{failpoint.DiskSegmentDirWrite, "torn(40)"},
		{failpoint.DiskSegmentSync, "error"},
		{failpoint.DiskCompactRename, "error"},
		{failpoint.DiskDirSync, "error"},
		{failpoint.DiskCompactInstall, "error"},
		{failpoint.DiskManifestWrite, "torn(10)"},
	} {
		t.Run(filepath.Base(tc.site)+"="+tc.action, func(t *testing.T) {
			failpoint.DisableAll()
			t.Cleanup(failpoint.DisableAll)
			dir := t.TempDir()
			tier := fastTier(t, Config[string]{Dir: dir, MaxSegments: -1})
			fillSegments(t, tier, 3, 10)
			blocks := dirFiles(t, dir, "blk-*.kfs")
			if err := failpoint.Enable(tc.site, tc.action); err != nil {
				t.Fatal(err)
			}
			if err := tier.CompactAll(); err == nil {
				t.Fatal("merge succeeded despite injected fault")
			}
			failpoint.DisableAll()
			if got := tier.Stats(); got.Segments != 3 || got.Blocks != 3 || got.Compactions != 0 {
				t.Fatalf("failed merge left %d segments over %d blocks, %d compactions", got.Segments, got.Blocks, got.Compactions)
			}
			for _, pattern := range []string{"lvl-*", "*.compact"} {
				if left, _ := filepath.Glob(filepath.Join(dir, pattern)); len(left) != 0 {
					t.Fatalf("failed merge left %v", left)
				}
			}
			if got := dirFiles(t, dir, "blk-*.kfs"); fmt.Sprint(got) != fmt.Sprint(blocks) {
				t.Fatalf("failed merge touched the blocks: %v, were %v", got, blocks)
			}
			if err := tier.CompactAll(); err != nil {
				t.Fatal(err)
			}
			items, err := tier.Search([]string{"common"}, query.OpSingle, 100)
			if err != nil || len(items) != 30 {
				t.Fatalf("search after the retried merge: %d items, err=%v", len(items), err)
			}
		})
	}
}

// TestENOSPCSurfacesTyped checks the enospc action wraps the real
// syscall error so callers can special-case a full disk.
func TestENOSPCSurfacesTyped(t *testing.T) {
	tier := newFaultTier(t, RetryPolicy{})
	if err := failpoint.Enable(failpoint.DiskSegmentWrite, "enospc"); err != nil {
		t.Fatal(err)
	}
	err := tier.Flush([]FlushRecord{fr(1, 1, "a")})
	if err == nil {
		t.Fatal("flush succeeded despite ENOSPC")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("flush error %v does not wrap syscall.ENOSPC", err)
	}
}

// TestErrorOnlySitesLive arms the tier-side error-injection-only sites
// (registered for failpointcov coverage, excluded from the crash
// matrix) and proves they interrupt their operations: DiskOpenMkdir
// fails Open cleanly before any state exists, and DiskDirSync turns a
// flush's directory fsync into a surfaced error.
func TestErrorOnlySitesLive(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)

	if err := failpoint.Enable(failpoint.DiskOpenMkdir, "error"); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config[string]{
		Dir:    t.TempDir(),
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Open with %s armed = %v, want injected error", failpoint.DiskOpenMkdir, err)
	}
	failpoint.Disable(failpoint.DiskOpenMkdir)

	tier := newFaultTier(t, RetryPolicy{})
	if err := failpoint.Enable(failpoint.DiskDirSync, "error"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a")}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Flush with %s armed = %v, want injected error", failpoint.DiskDirSync, err)
	}
	failpoint.Disable(failpoint.DiskDirSync)
	if err := tier.Flush([]FlushRecord{fr(2, 2, "a")}); err != nil {
		t.Fatalf("Flush after disarm = %v", err)
	}

	// DiskDrainUnlink: a drained log file no directory names outlives a
	// failed unlink — the commit carrying its mark still succeeds — and
	// the next open deletes it.
	dir := t.TempDir()
	writeLogFile(t, dir, 1, fr(1, 1, "a"))
	logged := loggedTier(t, dir, 0)
	if err := failpoint.Enable(failpoint.DiskDrainUnlink, "error"); err != nil {
		t.Fatal(err)
	}
	logged.cfg.Logs.Drain(1)
	if err := logged.Close(); err != nil {
		t.Fatalf("Close with %s armed = %v: the commit must not fail", failpoint.DiskDrainUnlink, err)
	}
	if !fileExists(filepath.Join(dir, LogName(1))) || failpoint.Hits(failpoint.DiskDrainUnlink) == 0 {
		t.Fatal("the armed unlink did not stop the removal")
	}
	failpoint.Disable(failpoint.DiskDrainUnlink)
	if reopened := loggedTier(t, dir, 0); reopened.cfg.Logs.Drained(1) || fileExists(filepath.Join(dir, LogName(1))) {
		t.Fatal("the next open kept a drained log file no directory names")
	}
}

// TestDrainedLogFileUnlinkFailsElsewhere: with the drained file's unlink
// failing, the user tier's merge that stops naming it reports the error
// and leaves the file; the next open's sweep removes it and heals the
// home manifest's drained list.
func TestDrainedLogFileUnlinkFailsElsewhere(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	if err := failpoint.Enable(failpoint.DiskDrainUnlink, "error"); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	path, err := mergeAwayDrainedFile(t, root)
	if !errors.Is(err, failpoint.ErrInjected) || !fileExists(path) {
		t.Fatalf("merge with %s armed = %v, file kept %v", failpoint.DiskDrainUnlink, err, fileExists(path))
	}
	failpoint.Disable(failpoint.DiskDrainUnlink)
	sharedLogTiers(t, root)
	if fileExists(path) {
		t.Fatal("the next open kept a drained log file no tier names")
	}
	if m, err := ReadManifest(filepath.Join(root, "keyword")); err != nil || len(m.Drained) != 0 {
		t.Fatalf("healed drained list %v, %v", m.Drained, err)
	}
}
