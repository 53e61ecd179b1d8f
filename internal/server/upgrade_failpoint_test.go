//go:build failpoint

package server

import (
	"fmt"
	"testing"

	"kflushing/internal/failpoint"
)

// TestUpgradeSplitLogsResumes cuts the split-log upgrade short at every
// failpoint site it passes — each hit of each site in turn — then runs it
// again, which must complete the job with the answers of the split store.
// A hit whose failure the upgrade tolerates (a drained file's unlink past
// its commit) must leave it complete as it is. The sites are the crash
// matrix's and the error-only ones the upgrade passes: a directory fsync
// that fails after a manifest's rename surfaces, but the commit the live
// manifest carries stands.
func TestUpgradeSplitLogsResumes(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	sites := append(failpoint.CrashSites(), failpoint.DiskDirSync, failpoint.WALCloseSync)
	for _, site := range sites {
		if err := failpoint.Enable(site, "sleep(0)"); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	buildSplitDir(t, dir)
	// Count the upgrade's own hits: building the store passed the sites too.
	base := make(map[string]int64)
	for _, site := range sites {
		base[site] = failpoint.Hits(site)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]int64)
	for _, site := range sites {
		hits[site] = failpoint.Hits(site) - base[site]
	}
	failpoint.DisableAll()
	if hits[failpoint.DiskSegmentRename] == 0 || hits[failpoint.DiskCompactRemove] == 0 {
		t.Fatalf("the upgrade linked or unlinked no log file: %v", hits)
	}
	for _, site := range sites {
		for n := int64(1); n <= hits[site]; n++ {
			t.Run(fmt.Sprintf("%s#%d", site, n), func(t *testing.T) {
				dir := t.TempDir()
				want := buildSplitDir(t, dir)
				if err := failpoint.Enable(site, fmt.Sprintf("errevery(%d)", n)); err != nil {
					t.Fatal(err)
				}
				err := Upgrade(dir)
				failpoint.DisableAll()
				if err == nil {
					checkUpgradedStore(t, dir, want)
					return
				}
				if err := Upgrade(dir); err != nil {
					t.Fatalf("the rerun after a cut: %v", err)
				}
				checkUpgradedStore(t, dir, want)
			})
		}
	}
}
