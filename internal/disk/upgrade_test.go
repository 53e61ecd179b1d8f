package disk_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/types"
)

func tierConfig(dir string) disk.Config[string] {
	return disk.Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	}
}

// TestUpgradeRefusesOutOfWindow: a directory holding one retired format
// (see disk.OutOfWindow) is refused by every open that reads it and by
// the upgrade alike — ErrNeedsUpgrade naming the file and the commit
// whose upgrade converts it — and no file under it changes. A tier is
// opened as a tier and as a durable store; a kflushd data directory as
// the attribute table.
func TestUpgradeRefusesOutOfWindow(t *testing.T) {
	for _, row := range disk.OutOfWindow {
		t.Run(row.Name, func(t *testing.T) {
			dir := t.TempDir()
			row.Build(t, dir)
			before := treeFiles(t, dir)
			runs := map[string]func() error{
				"upgrade": func() error { return disk.Upgrade(dir) },
				"tier open": func() error {
					_, err := disk.Open(tierConfig(dir))
					return err
				},
				"durable open": func() error {
					_, err := kflushing.Open(dir, kflushing.Options{Durable: true})
					return err
				},
			}
			if row.Data {
				delete(runs, "tier open")
				delete(runs, "durable open")
				runs["attribute table open"] = func() error {
					_, _, _, err := kflushing.OpenAttributes(dir, kflushing.Options{Durable: true})
					return err
				}
			}
			for what, run := range runs {
				err := run()
				if !errors.Is(err, disk.ErrNeedsUpgrade) || !strings.Contains(fmt.Sprint(err), row.Commit) ||
					!strings.Contains(fmt.Sprint(err), row.File+" ") {
					t.Fatalf("%s = %v; want ErrNeedsUpgrade naming %s and commit %s", what, err, row.File, row.Commit)
				}
				if after := treeFiles(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("a refused %s changed the directory:\n%v\nwas\n%v", what, after, before)
				}
			}
		})
	}
}

// treeFiles lists every file under dir with its size and content.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		out[p] = fmt.Sprintf("%d %x", len(b), b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
