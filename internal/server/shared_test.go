package server

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"kflushing"
	"kflushing/internal/wal"
)

// TestStoreSharedIDs pins the stream the three attributes share: every
// attribute that indexes a record reports the one ID the record got,
// including records some attribute does not index; IDs are never handed
// out twice; a durable store logs each record once, in the keyword
// directory alone; and every attribute answers the same after Close and
// reopen, replay included.
func TestStoreSharedIDs(t *testing.T) {
	dir := t.TempDir()
	opt := kflushing.Options{MemoryBudget: 24 << 10, K: 3, SyncFlush: true, Durable: true}
	st, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []kflushing.Microblog{
		{Keywords: []string{"all", "three"}, UserID: 7, HasGeo: true, Lat: 40.7, Lon: -74.0},
		{Keywords: []string{"all", "kwonly"}},
		{HasGeo: true, Lat: 35, Lon: -100},
		{UserID: 9},
		{Keywords: []string{"all"}, UserID: 7},
		{Text: "film premiere tonight", HasGeo: true, Lat: 40.7, Lon: -74.0},
	}
	var mbs []*kflushing.Microblog
	for i := 0; i < 300; i++ {
		mb := shapes[i%len(shapes)]
		mb.Text += fmt.Sprintf(" %d %s", i, "padding padding padding padding padding")
		mbs = append(mbs, &mb)
	}
	seen := map[kflushing.ID]bool{}
	for from := 0; from < len(mbs); from += 25 {
		res, err := st.IngestBatch(mbs[from : from+25])
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			id := max(r.KeywordID, r.SpatialID, r.UserID)
			if id == 0 || seen[id] {
				t.Fatalf("record %d: ID %d is zero or handed out twice", from+j, id)
			}
			seen[id] = true
			for attr, got := range map[string]kflushing.ID{"keyword": r.KeywordID, "spatial": r.SpatialID, "user": r.UserID} {
				a := st.attrs[map[string]int{"keyword": 0, "spatial": 1, "user": 2}[attr]]
				want := kflushing.ID(0)
				if a.Indexes(mbs[from+j]) {
					want = id
				}
				if got != want {
					t.Fatalf("record %d: %s ID %d, want %d (%+v)", from+j, attr, got, want, r)
				}
			}
		}
	}
	answers := func(s *Store) []any {
		t.Helper()
		var out []any
		for _, q := range []func() (kflushing.Result, error){
			func() (kflushing.Result, error) { return s.SearchKeywords([]string{"all"}, kflushing.OpSingle, 50) },
			func() (kflushing.Result, error) {
				return s.SearchKeywords([]string{"all", "three"}, kflushing.OpAnd, 50)
			},
			func() (kflushing.Result, error) { return s.SearchNearby(40.7, -74.0, 0, 50) },
			func() (kflushing.Result, error) { return s.SearchUser(7, 50) },
			func() (kflushing.Result, error) { return s.SearchUser(9, 50) },
		} {
			res, err := q()
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]kflushing.ID, len(res.Items))
			for i, it := range res.Items {
				ids[i] = it.MB.ID
			}
			out = append(out, ids)
		}
		return out
	}
	before := answers(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"spatial", "user"} {
		if logs, _ := filepath.Glob(filepath.Join(dir, attr, "wal-*")); len(logs) != 0 {
			t.Fatalf("%s holds log files %v: the store keeps one log", attr, logs)
		}
	}
	files, err := wal.Inspect(filepath.Join(dir, "keyword"))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, f := range files {
		frames += f.Frames
	}
	if frames != len(mbs) {
		t.Fatalf("the log frames %d records for %d ingested: one frame per microblog", frames, len(mbs))
	}

	st, err = OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if after := answers(st); !reflect.DeepEqual(before, after) {
		t.Fatalf("answers changed across reopen:\nbefore %v\nafter  %v", before, after)
	}
	res, err := st.Ingest(&kflushing.Microblog{Keywords: []string{"late"}, UserID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeywordID != res.UserID || seen[res.KeywordID] || res.KeywordID <= kflushing.ID(len(mbs)) {
		t.Fatalf("a record after reopen got %+v, not a fresh ID past %d", res, len(mbs))
	}
}
