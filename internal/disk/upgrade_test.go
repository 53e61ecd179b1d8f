package disk_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestReadsV5InPlace: a tier of record blocks and a durable kflushd data
// directory, written by this build and then rewritten file by file as
// v5 by the kept v5 writer (disk.RewriteAsV5), pass the upgrade
// preflight unchanged and open as they are, answering 200 sampled
// queries byte-identically. Writing the second half of the stream then
// mixes v6 files in — the tier merges its v5 and v6 blocks, the store
// replays v5 and v6 log files — and both still answer as a twin that was
// never rewritten does. Every v5 file still present is byte-unchanged,
// every other record file is v6, every tier verifies, and disk.Inspect
// (`kflushctl segments`) reports each file's own version.
func TestReadsV5InPlace(t *testing.T) {
	for _, fx := range storeFixtures(4000) {
		t.Run(fx.name, func(t *testing.T) {
			dir, twin := t.TempDir(), t.TempDir()
			fx.write(t, dir, 0)
			copyTree(t, dir, twin)
			v5 := disk.RewriteAsV5(t, dir)
			if len(v5) == 0 {
				t.Fatal("the store holds no record file")
			}
			rewritten := treeFiles(t, dir)
			if err := disk.Upgrade(dir); err != nil {
				t.Fatalf("the preflight refused a v5 store: %v", err)
			}
			if after := treeFiles(t, dir); !reflect.DeepEqual(after, rewritten) {
				t.Fatal("the preflight changed a v5 store")
			}
			if got, want := fx.answers(t, dir), fx.answers(t, twin); got != want {
				t.Fatalf("a v5 store answers\n%s\nits v6 twin\n%s", got, want)
			}
			fx.write(t, dir, 1)
			fx.write(t, twin, 1)
			if got, want := fx.answers(t, dir), fx.answers(t, twin); got != want {
				t.Fatalf("a v5 + v6 store answers\n%s\nits v6 twin\n%s", got, want)
			}
			versions := checkRecordFiles(t, dir, v5, rewritten)
			if fx.name == "tier" {
				if versions[5] == 0 || versions[6] == 0 {
					t.Fatalf("record file versions %v: want v5 and v6 files in the merged tier", versions)
				}
				checkInspectVersions(t, dir)
			}
		})
	}
}

// checkRecordFiles checks the record files under dir after more writes
// over the v5 files v5, whose contents rewritten holds: each of those
// still present is unchanged, every other one is version 6, and every
// tier verifies. It counts the record files by version.
func checkRecordFiles(t *testing.T, dir string, v5 []string, rewritten map[string]string) map[int]int {
	t.Helper()
	versions := map[int]int{}
	tiers := map[string]bool{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if d.Name() == "manifest.kfm" {
			tiers[filepath.Dir(p)] = true
		}
		if name := d.Name(); !strings.HasPrefix(name, "blk-") && !strings.HasPrefix(name, "wal-") {
			return nil
		}
		version := fileVersion(t, p)
		versions[version]++
		switch {
		case slices.Contains(v5, p):
			if b, _ := os.ReadFile(p); fmt.Sprintf("%d %x", len(b), b) != rewritten[p] {
				t.Errorf("v5 file %s changed", p)
			}
		case version != 6:
			t.Errorf("new record file %s is version %d", p, version)
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
	return versions
}

// checkInspectVersions checks that disk.Inspect reports every record
// file's version as its header holds it.
func checkInspectVersions(t *testing.T, dir string) {
	t.Helper()
	infos, err := disk.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		for _, b := range info.Blocks {
			if want := fileVersion(t, filepath.Join(dir, b.Name)); b.Version != want {
				t.Errorf("Inspect reports %s as version %d, its header says %d", b.Name, b.Version, want)
			}
		}
	}
}

// fileVersion is the version in the header of the record file at path.
func fileVersion(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil || len(b) < disk.HeaderSize {
		t.Fatalf("%s: %d bytes, %v", path, len(b), err)
	}
	return int(binary.LittleEndian.Uint16(b[4:]))
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

// storeFixture is a store the v5 battery writes and reads: write fills
// dir with one half of the stream (part 0 or 1) in this build's
// formats, the tier merging everything after the second, and answers
// renders 200 sampled queries.
type storeFixture struct {
	name    string
	write   func(t *testing.T, dir string, part int)
	answers func(t *testing.T, dir string) string
}

// storeFixtures returns a tier of record blocks and a durable kflushd
// data directory, each over the same n sampled microblogs.
func storeFixtures(n int) []storeFixture {
	mbs := sampleStream(n)
	queries := sampleQueries(mbs, 200)
	half := func(part int) []*types.Microblog { return mbs[part*n/2 : (part+1)*n/2] }
	opt := kflushing.Options{Durable: true, SyncFlush: true, MemoryBudget: 256 << 10}
	return []storeFixture{{
		name: "tier",
		write: func(t *testing.T, dir string, part int) {
			tier, err := disk.Open(tierConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			mbs := half(part)
			for i := 0; i < len(mbs); i += len(mbs) / 4 {
				var batch []disk.FlushRecord
				for _, mb := range mbs[i : i+len(mbs)/4] {
					batch = append(batch, disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)})
				}
				if err := tier.Flush(batch); err != nil {
					t.Fatal(err)
				}
			}
			if part == 1 {
				if err := tier.CompactAll(); err != nil {
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
	}, {
		name: "data",
		write: func(t *testing.T, dir string, part int) {
			kw, _, _, err := kflushing.OpenAttributes(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			mbs := half(part)
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
	}}
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
