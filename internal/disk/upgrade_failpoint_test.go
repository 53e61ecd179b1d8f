//go:build failpoint

package disk_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// TestUpgradeResumes cuts the v4 upgrade short at every failpoint site it
// passes — each hit of each site in turn, a crash between two files or
// inside one — then runs it again, which must complete the job: every
// record file v5, and the same answers as before the v4 rewrite.
func TestUpgradeResumes(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	sites := append(failpoint.CrashSites(), failpoint.DiskDirSync)
	for _, fx := range upgradeFixtures(1200) {
		template := t.TempDir()
		fx.write(t, template)
		fresh := func() string {
			dir := t.TempDir()
			copyTree(t, template, dir)
			return dir
		}
		before := fx.answers(t, fresh())
		disk.DowngradeToV4(t, template)
		// A clean run counts the hits of every site.
		for _, site := range sites {
			if err := failpoint.Enable(site, "sleep(0)"); err != nil {
				t.Fatal(err)
			}
		}
		if err := disk.Upgrade(fresh()); err != nil {
			t.Fatal(err)
		}
		hits := make(map[string]int64)
		for _, site := range sites {
			hits[site] = failpoint.Hits(site)
		}
		failpoint.DisableAll()
		if hits[failpoint.DiskSegmentRename] < 2 || hits[failpoint.DiskDirSync] < 2 {
			t.Fatalf("%s: the upgrade renamed fewer than two files: %v", fx.name, hits)
		}
		for _, site := range sites {
			for n := int64(1); n <= hits[site]; n++ {
				t.Run(fmt.Sprintf("%s/%s#%d", fx.name, site, n), func(t *testing.T) {
					dir := fresh()
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
					checkV5(t, dir)
					if after := fx.answers(t, dir); after != before {
						t.Fatalf("answers changed across a resumed upgrade:\n%s\nwere\n%s", after, before)
					}
				})
			}
		}
	}
}

// copyTree copies the files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
