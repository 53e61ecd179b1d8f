package disk_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/gen"
	"kflushing/internal/query"
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

// TestUpgradeConvertsV4: a tier of record blocks and a durable kflushd
// data directory, written by this build and then rewritten file by file
// in v4 by the kept v4 writer (disk.DowngradeToV4), are refused by every
// open — ErrNeedsUpgrade naming this build's upgrade — without a file
// changing. The upgrade converts every record file to v5 in place, after
// which 200 sampled queries answer byte-identically, Verify passes and a
// second upgrade changes nothing.
func TestUpgradeConvertsV4(t *testing.T) {
	for _, fx := range upgradeFixtures(4000) {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			fx.write(t, dir)
			checkConversion(t, dir, func() string { return fx.answers(t, dir) }, func() error { return fx.open(dir) })
		})
	}
}

// upgradeFixture is a store the upgrade battery converts: write fills
// dir in this build's formats, answers renders 200 sampled queries, and
// open opens it as its owner does.
type upgradeFixture struct {
	name    string
	write   func(t *testing.T, dir string)
	answers func(t *testing.T, dir string) string
	open    func(dir string) error
}

// upgradeFixtures returns a tier of record blocks and a durable kflushd
// data directory, each over the same n sampled microblogs.
func upgradeFixtures(n int) []upgradeFixture {
	mbs := sampleStream(n)
	queries := sampleQueries(mbs, 200)
	opt := kflushing.Options{Durable: true, SyncFlush: true, MemoryBudget: 256 << 10}
	return []upgradeFixture{{
		name: "tier",
		write: func(t *testing.T, dir string) {
			tier, err := disk.Open(tierConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(mbs); i += len(mbs) / 8 {
				var batch []disk.FlushRecord
				for _, mb := range mbs[i : i+len(mbs)/8] {
					batch = append(batch, disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)})
				}
				if err := tier.Flush(batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := tier.Close(); err != nil {
				t.Fatal(err)
			}
		},
		answers: func(t *testing.T, dir string) string {
			tier, err := disk.Open(tierConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer tier.Close()
			var out strings.Builder
			for _, q := range queries {
				items, err := tier.Search(q.keys, q.op, q.k)
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items {
					fmt.Fprintln(&out, describe(disk.FlushRecord{MB: it.MB, Score: it.Score}))
				}
				fmt.Fprintln(&out, "--")
			}
			return out.String()
		},
		open: func(dir string) error {
			_, err := disk.Open(tierConfig(dir))
			return err
		},
	}, {
		name: "data",
		write: func(t *testing.T, dir string) {
			kw, _, _, err := kflushing.OpenAttributes(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(mbs); i += 16 {
				if _, err := kw.IngestBatch(mbs[i:min(i+16, len(mbs))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := kw.Close(); err != nil {
				t.Fatal(err)
			}
		},
		answers: func(t *testing.T, dir string) string {
			kw, sp, us, err := kflushing.OpenAttributes(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer kw.Close()
			var out strings.Builder
			emit := func(res kflushing.Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range res.Items {
					fmt.Fprintln(&out, describe(disk.FlushRecord{MB: it.MB, Score: it.Score}))
				}
				fmt.Fprintln(&out, "--")
			}
			for i, q := range queries {
				mb := mbs[(i*7919)%len(mbs)]
				switch i % 3 {
				case 0:
					emit(kw.Search(q.keys, q.op, q.k))
				case 1:
					emit(us.SearchUser(mb.UserID, q.k))
				default:
					emit(sp.SearchAt(mb.Lat, mb.Lon, q.k))
				}
			}
			return out.String()
		},
		open: func(dir string) error {
			_, _, _, err := kflushing.OpenAttributes(dir, opt)
			return err
		},
	}}
}

// checkConversion runs the v4 round of TestUpgradeConvertsV4 over dir:
// answers before, the v4 rewrite, the refused opens, the upgrade, and
// answers after.
func checkConversion(t *testing.T, dir string, answers func() string, open func() error) {
	t.Helper()
	before := answers()
	disk.DowngradeToV4(t, dir)
	v4 := treeFiles(t, dir)
	for what, run := range map[string]func() error{"open": open, "durable open": func() error {
		_, err := kflushing.Open(filepath.Join(dir, "keyword"), kflushing.Options{Durable: true})
		return err
	}} {
		if what == "durable open" && !strings.Contains(fmt.Sprint(v4), "keyword") {
			continue
		}
		if err := run(); !errors.Is(err, disk.ErrNeedsUpgrade) || !strings.Contains(fmt.Sprint(err), "version 4") ||
			!strings.Contains(fmt.Sprint(err), "this build's `kflushctl upgrade") {
			t.Fatalf("%s of a v4 directory = %v; want ErrNeedsUpgrade naming this build's upgrade", what, err)
		}
	}
	if after := treeFiles(t, dir); !reflect.DeepEqual(after, v4) {
		t.Fatal("a refused open changed the directory")
	}
	if err := disk.Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	checkV5(t, dir)
	done := treeFiles(t, dir)
	if err := disk.Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	if again := treeFiles(t, dir); !reflect.DeepEqual(again, done) {
		t.Fatal("a second upgrade changed the directory")
	}
	if after := answers(); after != before {
		t.Fatalf("answers changed across the upgrade:\n%s\nwere\n%s", after, before)
	}
}

// checkV5 checks that every record file under dir is version 5 and that
// every tier verifies.
func checkV5(t *testing.T, dir string) {
	t.Helper()
	tiers := map[string]bool{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, "blk-") || strings.HasPrefix(name, "wal-") {
			b, err := os.ReadFile(p)
			if err != nil || len(b) < 6 || b[4] != 5 || b[5] != 0 {
				t.Fatalf("%s is not version 5 after the upgrade (%v)", p, err)
			}
		}
		if d.Name() == "manifest.kfm" {
			tiers[filepath.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for tier := range tiers {
		if _, _, err := disk.Verify(tier); err != nil {
			t.Fatalf("verify %s: %v", tier, err)
		}
	}
}

// sampleStream returns n microblogs of the benchmark's shape over a small
// vocabulary, so that keys recur.
func sampleStream(n int) []*types.Microblog {
	cfg := gen.DefaultConfig()
	cfg.Vocab, cfg.Users, cfg.Hotspots = 300, 200, 20
	g := gen.New(cfg)
	mbs := make([]*types.Microblog, n)
	for i := range mbs {
		mbs[i] = g.Next()
		mbs[i].ID = types.ID(i + 1)
	}
	return mbs
}

type sampledQuery struct {
	keys []string
	op   query.Op
	k    int
}

// sampleQueries draws n keyword queries over the keywords of mbs:
// single, OR and AND, at k 5 and 20.
func sampleQueries(mbs []*types.Microblog, n int) []sampledQuery {
	rng := rand.New(rand.NewSource(1))
	kw := func() string {
		for {
			if mb := mbs[rng.Intn(len(mbs))]; len(mb.Keywords) > 0 {
				return mb.Keywords[rng.Intn(len(mb.Keywords))]
			}
		}
	}
	qs := make([]sampledQuery, n)
	for i := range qs {
		q := sampledQuery{keys: []string{kw()}, op: query.OpSingle, k: 5}
		if i%2 == 1 {
			q.k = 20
		}
		switch i % 3 {
		case 1:
			q.keys, q.op = append(q.keys, kw()), query.OpOr
		case 2:
			q.keys, q.op = append(q.keys, kw()), query.OpAnd
		}
		qs[i] = q
	}
	return qs
}

// describe renders every field of a record.
func describe(fr disk.FlushRecord) string {
	m := fr.MB
	return fmt.Sprintf("%d@%g(ts=%d u=%d f=%d geo=%v %g,%g %s %q)", m.ID, fr.Score, m.Timestamp, m.UserID,
		m.Followers, m.HasGeo, m.Lat, m.Lon, strings.Join(m.Keywords, "+"), m.Text)
}
