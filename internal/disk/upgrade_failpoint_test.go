//go:build failpoint

package disk_test

import (
	"fmt"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// TestUpgradeResumes cuts the upgrade short at every failpoint site it
// passes — each hit of each site in turn — then runs it again, which must
// complete the job with the same answers as an upgrade never cut.
func TestUpgradeResumes(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	sites := append(failpoint.CrashSites(), failpoint.DiskDirSync)
	for _, mv := range []int{3, 0} {
		// A clean run counts the hits of every site.
		for _, site := range sites {
			if err := failpoint.Enable(site, "sleep(0)"); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		disk.BuildWindowDir(t, dir, mv != 0)
		if err := disk.Upgrade(dir); err != nil {
			t.Fatal(err)
		}
		hits := make(map[string]int64)
		for _, site := range sites {
			hits[site] = failpoint.Hits(site)
		}
		failpoint.DisableAll()
		if hits[failpoint.DiskSegmentRename] == 0 || hits[failpoint.DiskDirSync] == 0 {
			t.Fatalf("manifest v%d: the upgrade passed no rename: %v", mv, hits)
		}
		for _, site := range sites {
			for n := int64(1); n <= hits[site]; n++ {
				t.Run(fmt.Sprintf("manifest=v%d/%s#%d", mv, site, n), func(t *testing.T) {
					dir := t.TempDir()
					tierRecs, logRecs := disk.BuildWindowDir(t, dir, mv != 0)
					if err := failpoint.Enable(site, fmt.Sprintf("errevery(%d)", n)); err != nil {
						t.Fatal(err)
					}
					err := disk.Upgrade(dir)
					failpoint.DisableAll()
					if err == nil {
						t.Fatal("the upgrade ran through the armed site")
					}
					if err := disk.Upgrade(dir); err != nil {
						t.Fatalf("the rerun after a cut: %v", err)
					}
					checkUpgraded(t, dir, tierRecs, logRecs)
				})
			}
		}
	}
}
