package disk_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

func tierConfig(dir string) disk.Config[string] {
	return disk.Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	}
}

// TestUpgrade: a directory holding every format of the support window
// at once (see disk.BuildWindowDir), under a current manifest or none,
// is refused by the tier and by a durable store without a file
// changing; after the upgrade every file is of the current version,
// every search answers what a brute force over the records answers,
// Verify passes, the log replays every record it held — and a second
// upgrade changes nothing.
func TestUpgrade(t *testing.T) {
	for _, mv := range []int{3, 0} {
		t.Run(fmt.Sprintf("manifest=v%d", mv), func(t *testing.T) {
			dir := t.TempDir()
			tierRecs, logRecs := disk.BuildWindowDir(t, dir, mv != 0)
			before := disk.DirFiles(t, dir, "*.kf?")
			if _, err := disk.Open(tierConfig(dir)); !errors.Is(err, disk.ErrNeedsUpgrade) {
				t.Fatalf("tier open = %v, want ErrNeedsUpgrade", err)
			}
			if _, err := kflushing.Open(dir, kflushing.Options{Durable: true}); !errors.Is(err, disk.ErrNeedsUpgrade) {
				t.Fatalf("durable open = %v, want ErrNeedsUpgrade", err)
			}
			if after := disk.DirFiles(t, dir, "*.kf?"); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused open changed the directory:\n%v\nwas\n%v", after, before)
			}
			if err := disk.Upgrade(dir); err != nil {
				t.Fatal(err)
			}
			checkUpgraded(t, dir, tierRecs, logRecs)
			done := disk.DirFiles(t, dir, "*")
			if err := disk.Upgrade(dir); err != nil {
				t.Fatal(err)
			}
			if again := disk.DirFiles(t, dir, "*"); !reflect.DeepEqual(again, done) {
				t.Fatalf("a second upgrade changed the directory:\n%v\nwas\n%v", again, done)
			}
		})
	}
}

// TestUpgradeRefusesOutOfWindow: a directory holding one format older
// than the support window (see disk.OutOfWindow) is refused by the tier,
// by a durable store and by the upgrade alike — ErrNeedsUpgrade naming
// the file and the commit whose upgrade converts it — and no file under
// it changes.
func TestUpgradeRefusesOutOfWindow(t *testing.T) {
	for _, row := range disk.OutOfWindow {
		t.Run(row.Name, func(t *testing.T) {
			dir := t.TempDir()
			row.Build(t, dir)
			before := treeFiles(t, dir)
			for what, run := range map[string]func() error{
				"tier open": func() error { _, err := disk.Open(tierConfig(dir)); return err },
				"durable open": func() error {
					_, err := kflushing.Open(dir, kflushing.Options{Durable: true})
					return err
				},
				"upgrade": func() error { return disk.Upgrade(dir) },
			} {
				err := run()
				if !errors.Is(err, disk.ErrNeedsUpgrade) || !strings.Contains(fmt.Sprint(err), "ff40e7c") ||
					!strings.Contains(fmt.Sprint(err), row.File+" ") {
					t.Fatalf("%s = %v; want ErrNeedsUpgrade naming %s and commit ff40e7c", what, err, row.File)
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

// checkUpgraded checks an upgraded directory: current formats only, the
// tier's answers against a brute force over tierRecs, Verify, and the
// log's records against logRecs.
func checkUpgraded(t *testing.T, dir string, tierRecs, logRecs []disk.FlushRecord) {
	t.Helper()
	// A file the manifest retires goes at the next open, unread.
	m, err := disk.ReadManifest(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want := map[string]string{"blk": "KFBK\x04", "seg": "KFSG\x04", "lvl": "KFSG\x04", "wal": "KFWL\x04", "man": "KFMF\x03"}[e.Name()[:3]]
		if b, _ := os.ReadFile(filepath.Join(dir, e.Name())); !slices.Contains(m.Retired, e.Name()) && !strings.HasPrefix(string(b), want) {
			t.Fatalf("%s starts %q after the upgrade, want %q", e.Name(), b[:min(len(b), 5)], want)
		}
	}

	cfg := tierConfig(dir)
	cfg.Logs = disk.NewLogSet(dir)
	tier, err := disk.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if got := tier.MaxRecordID(); got != 60 {
		t.Fatalf("MaxRecordID = %d, want 60", got)
	}
	search := func(op query.Op, keys ...string) {
		for _, k := range []int{1, 20} {
			items, err := tier.Search(keys, op, k)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, it := range items {
				got = append(got, describe(disk.FlushRecord{MB: it.MB, Score: it.Score}))
			}
			if want := bruteForce(tierRecs, keys, op, k); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v %v k=%d:\n got %v\nwant %v", op, keys, k, got, want)
			}
		}
	}
	vocab := []string{"old", "both", "zz", "mid", "new", "absent"}
	for i, a := range vocab {
		search(query.OpSingle, a)
		for _, b := range vocab[i+1:] {
			search(query.OpOr, a, b)
			search(query.OpAnd, a, b)
		}
	}
	if segs, recs, err := disk.Verify(dir); err != nil || recs < len(tierRecs) {
		t.Fatalf("verify: %d segments, %d records, %v", segs, recs, err)
	}

	l, err := wal.Open(dir, wal.Options{Logs: cfg.Logs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got, want []string
	if err := l.Replay(func(fr disk.FlushRecord) error {
		if d := describe(fr); !slices.Contains(got, d) {
			got = append(got, d) // a record framed twice replays twice
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, fr := range logRecs {
		want = append(want, describe(fr))
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the log replays\n%v\nwant\n%v", got, want)
	}
}

// describe renders every field of a record.
func describe(fr disk.FlushRecord) string {
	m := fr.MB
	return fmt.Sprintf("%d@%g(ts=%d u=%d f=%d geo=%v %g,%g %s %q)", m.ID, fr.Score, m.Timestamp, m.UserID,
		m.Followers, m.HasGeo, m.Lat, m.Lon, strings.Join(m.Keywords, "+"), m.Text)
}

// bruteForce answers a search over recs: those matching keys under op,
// best first, k of them.
func bruteForce(recs []disk.FlushRecord, keys []string, op query.Op, k int) []string {
	var hits []disk.FlushRecord
	for _, fr := range recs {
		n := 0
		for _, key := range keys {
			for _, kw := range fr.MB.Keywords {
				if kw == key {
					n++
					break
				}
			}
		}
		if n == len(keys) || op == query.OpOr && n > 0 {
			hits = append(hits, fr)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		return a.Score > b.Score || a.Score == b.Score && a.MB.ID > b.MB.ID
	})
	var out []string
	for _, fr := range hits[:min(k, len(hits))] {
		out = append(out, describe(fr))
	}
	return out
}
