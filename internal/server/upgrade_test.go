package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
)

// splitOptions is the configuration of the split-log stores the upgrade
// tests build: small budgets, so flushes post most records and the logs
// keep some undrained.
func splitOptions() kflushing.Options {
	return kflushing.Options{MemoryBudget: 24 << 10, K: 3, SyncFlush: true, Durable: true}
}

// buildSplitDir writes under dir what a kflushd before the shared log
// left: one durable system per attribute, each with a log of its own in
// its directory and IDs of its own, every record cloned into each system
// indexing it. It returns the answers of the probe queries.
func buildSplitDir(t *testing.T, dir string) [][]kflushing.ID {
	t.Helper()
	opt := splitOptions()
	kw, err := kflushing.Open(filepath.Join(dir, "keyword"), opt)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := kflushing.OpenSpatial(filepath.Join(dir, "spatial"), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	us, err := kflushing.OpenUser(filepath.Join(dir, "user"), opt)
	if err != nil {
		t.Fatal(err)
	}
	systems := []interface {
		Indexes(*kflushing.Microblog) bool
		IngestBatch([]*kflushing.Microblog) ([]kflushing.ID, error)
		Close() error
	}{kw, sp, us}
	for i := 0; i < 400; i++ {
		mb := &kflushing.Microblog{Text: fmt.Sprintf("split store record %d with some padding text", i)}
		if i%4 != 1 {
			mb.Keywords = []string{"all", fmt.Sprintf("b%d", i%5)}
		}
		if i%4 != 2 {
			mb.HasGeo, mb.Lat, mb.Lon = true, 40.7, -74.0
		}
		if i%4 != 3 {
			mb.UserID = uint64(1 + i%3)
		}
		for _, s := range systems {
			if s.Indexes(mb) {
				if _, err := s.IngestBatch([]*kflushing.Microblog{mb.Clone()}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := &Store{kw: kw, sp: sp, us: us}
	want := probeAnswers(t, st)
	for _, s := range systems {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// probeAnswers runs the probe queries: each attribute over every record
// it indexes, and a few narrower keys.
func probeAnswers(t *testing.T, st *Store) [][]kflushing.ID {
	t.Helper()
	var out [][]kflushing.ID
	add := func(res kflushing.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]kflushing.ID, len(res.Items))
		for i, it := range res.Items {
			ids[i] = it.MB.ID
		}
		out = append(out, ids)
	}
	add(st.SearchKeywords([]string{"all"}, kflushing.OpSingle, 1000))
	add(st.SearchKeywords([]string{"b1", "b2"}, kflushing.OpOr, 40))
	add(st.SearchKeywords([]string{"all", "b3"}, kflushing.OpAnd, 40))
	add(st.SearchNearby(40.7, -74.0, 0, 1000))
	for u := uint64(1); u <= 3; u++ {
		add(st.SearchUser(u, 1000))
	}
	return out
}

// snapshot lists every file under dir with its inode, size and content.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out[p] = fmt.Sprintf("%v %d %x", info.Sys().(*syscall.Stat_t).Ino, info.Size(), b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkUpgradedStore checks an upgraded split store: the spatial and user
// directories hold no log file, every tier verifies, and the store answers
// every probe as the three systems did before the upgrade, reopened.
func checkUpgradedStore(t *testing.T, dir string, want [][]kflushing.ID) {
	t.Helper()
	for _, attr := range []string{"keyword", "spatial", "user"} {
		d := filepath.Join(dir, attr)
		if attr != "keyword" {
			if names, _ := disk.LogFileNames(d); len(names) != 0 {
				t.Fatalf("%s still holds log files %v", attr, names)
			}
		}
		if _, _, err := disk.Verify(d); err != nil {
			t.Fatalf("%s: %v", attr, err)
		}
	}
	for reopen := 0; reopen < 2; reopen++ {
		st, err := OpenStore(dir, splitOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := probeAnswers(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d: answers differ from the split store's:\ngot  %v\nwant %v", reopen, got, want)
		}
	}
}

// TestUpgradeSplitLogs upgrades a data directory whose attributes kept
// one log each: the store refuses it before, answers every query as the
// split store did after, hands out IDs past every old one, and a second
// upgrade changes no file.
func TestUpgradeSplitLogs(t *testing.T) {
	dir := t.TempDir()
	want := buildSplitDir(t, dir)
	if _, err := OpenStore(dir, splitOptions()); !errors.Is(err, disk.ErrNeedsUpgrade) {
		t.Fatalf("open before the upgrade: %v, want ErrNeedsUpgrade", err)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	checkUpgradedStore(t, dir, want)
	before := snapshot(t, dir)
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a second upgrade changed files")
	}
	st, err := OpenStore(dir, splitOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Ingest(&kflushing.Microblog{Keywords: []string{"late"}, UserID: 1, HasGeo: true, Lat: 40.7, Lon: -74.0})
	if err != nil {
		t.Fatal(err)
	}
	var maxOld kflushing.ID
	for _, ids := range want {
		for _, id := range ids {
			maxOld = max(maxOld, id)
		}
	}
	if res.KeywordID <= maxOld || res.KeywordID != res.SpatialID || res.KeywordID != res.UserID {
		t.Fatalf("a record after the upgrade got %+v, want one ID past %d", res, maxOld)
	}
}
