package disk

import (
	"path/filepath"
	"sync"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

func TestCompactMergesAndPreservesAnswers(t *testing.T) {
	tier := testTier(t)
	// Three segments with overlapping keys.
	for seg := 0; seg < 3; seg++ {
		var recs []FlushRecord
		for i := 0; i < 10; i++ {
			id := uint64(seg*10 + i + 1)
			recs = append(recs, fr(id, float64(id), "a"))
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
	before, err := tier.Search([]string{"a"}, query.OpSingle, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := tier.Stats().Segments; got != 3 {
		t.Fatalf("segments before compaction = %d, want 3 (below fanout)", got)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := tier.Stats().Segments; got != 1 {
		t.Fatalf("segments after compaction = %d, want 1", got)
	}
	after, err := tier.Search([]string{"a"}, query.OpSingle, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("answers changed: %d vs %d", len(after), len(before))
	}
	for i := range after {
		if after[i].MB.ID != before[i].MB.ID {
			t.Fatalf("answer %d changed: %d vs %d", i, after[i].MB.ID, before[i].MB.ID)
		}
	}
}

func TestCompactDeduplicatesByID(t *testing.T) {
	tier := testTier(t)
	// The same record (partial flush then final flush) in two segments.
	dup := fr(7, 7, "a", "b")
	if err := tier.Flush([]FlushRecord{dup, fr(1, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{dup, fr(2, 2, "b")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]string{"a"}, query.OpSingle, 10)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, it := range items {
		if it.MB.ID == 7 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("record 7 appears %d times after compaction", count)
	}
	if st := tier.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d", st.Compactions)
	}
}

func TestCompactionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{
		Dir:    dir,
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fifth flush overflows L0 (default fanout 4) and merges it into
	// one L1 segment inline; the sixth starts a fresh L0.
	for i := 0; i < 6; i++ {
		if err := tier.Flush([]FlushRecord{fr(uint64(i+1), float64(i+1), "k")}); err != nil {
			t.Fatal(err)
		}
	}
	if st := tier.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().Segments; got != 2 {
		t.Fatalf("recovered %d segments, want 2 (1 merged + 1)", got)
	}
	if lv := re.Levels(); len(lv) != 2 || lv[0].Segments != 1 || lv[1].Segments != 1 || lv[1].Records != 5 {
		t.Fatalf("recovered levels %+v, want L0 and L1 holding one segment each, 5 records merged", lv)
	}
	items, err := re.Search([]string{"k"}, query.OpSingle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Fatalf("recovered search: %d of 6 records", len(items))
	}
}

// TestCompactionConcurrentWithSearch hammers searches while flushes and
// compactions run; run with -race. Searches must never observe errors,
// lost records, or a record twice.
func TestCompactionConcurrentWithSearch(t *testing.T) {
	tier := fastTier(t, Config[string]{MaxSegments: -1})
	for i := 0; i < 12; i++ {
		if err := tier.Flush([]FlushRecord{fr(uint64(i+1), float64(i+1), "k")}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			items, err := tier.Search([]string{"k"}, query.OpSingle, 20)
			if err != nil {
				t.Error(err)
				return
			}
			if len(items) != 12 {
				t.Errorf("search saw %d of 12 records", len(items))
				return
			}
		}
	}()
	// Each round re-flushes a copy of an existing record (a new segment,
	// no new ID) and folds the whole tier into one segment again, so
	// level swaps keep happening under the searcher.
	for i := 0; i < 5; i++ {
		if err := tier.Flush([]FlushRecord{fr(uint64(i+1), float64(i+1), "k")}); err != nil {
			t.Error(err)
			break
		}
		if err := tier.CompactAll(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestInspectAndVerify(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a", "b"), fr(2, 2, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{fr(3, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("inspected %d segments, want 2", len(infos))
	}
	if infos[0].Records != 2 || infos[0].Keys != 2 || infos[0].Postings != 3 {
		t.Fatalf("segment 0 info: %+v", infos[0])
	}
	segs, recs, err := Verify(dir)
	if err != nil || segs != 2 || recs != 3 {
		t.Fatalf("verify: segs=%d recs=%d err=%v", segs, recs, err)
	}
}

// TestCompactDirOffline runs the offline compaction entry point over an
// uncompacted pile of L0 segments and over a multi-level tree. Either
// way it must leave one segment, a manifest naming exactly that segment,
// a directory disk.Verify reads clean, and unchanged answers.
func TestCompactDirOffline(t *testing.T) {
	cases := []struct {
		name       string
		fanout     int
		maxSegs    int
		flushes    int
		wantLevels int // populated levels before CompactDir
	}{
		{name: "uncompacted L0", maxSegs: -1, flushes: 5, wantLevels: 1},
		{name: "multi-level", fanout: 2, flushes: 13, wantLevels: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config[string]{
				Dir:         dir,
				KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
				Encode:      func(s string) string { return s },
				LevelFanout: tc.fanout,
				MaxSegments: tc.maxSegs,
			}
			tier, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.flushes; i++ {
				if err := tier.Flush([]FlushRecord{fr(uint64(i+1), float64(i+1), "k")}); err != nil {
					t.Fatal(err)
				}
			}
			populated := 0
			for _, lv := range tier.Levels() {
				if lv.Segments > 0 {
					populated++
				}
			}
			if populated != tc.wantLevels {
				t.Fatalf("fixture has %d populated levels, want %d: %+v", populated, tc.wantLevels, tier.Levels())
			}
			before, err := tier.Search([]string{"k"}, query.OpSingle, 2*tc.flushes)
			if err != nil {
				t.Fatal(err)
			}
			tier.Close()

			if err := CompactDir(dir); err != nil {
				t.Fatal(err)
			}
			infos, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Records != tc.flushes {
				t.Fatalf("after offline compaction: %+v", infos)
			}
			m, err := ReadManifest(dir)
			if err != nil {
				t.Fatalf("manifest after offline compaction: %v", err)
			}
			if len(m.Live) != 1 || m.Live[0].Name != infos[0].Path || len(m.Retired) != 0 {
				t.Fatalf("manifest %+v does not name exactly %s", m, infos[0].Path)
			}
			if segs, recs, err := Verify(dir); err != nil || segs != 1 || recs != tc.flushes {
				t.Fatalf("verify: segs=%d recs=%d err=%v", segs, recs, err)
			}
			// The merged directory still serves searches through a fresh tier.
			re, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			after, err := re.Search([]string{"k"}, query.OpSingle, 2*tc.flushes)
			if err != nil || len(after) != tc.flushes || len(after) != len(before) {
				t.Fatalf("post-compaction search: %d items (before %d), err=%v", len(after), len(before), err)
			}
			for i := range after {
				if after[i].MB.ID != before[i].MB.ID {
					t.Fatalf("answer %d changed: ID %d, was %d", i, after[i].MB.ID, before[i].MB.ID)
				}
			}
		})
	}
	if err := CompactDir(filepath.Join(t.TempDir(), "no-such-dir")); err == nil {
		t.Fatal("CompactDir created a missing directory instead of failing")
	}
}

// TestMergePreservesForeignDirectories checks that compaction carries
// directory keys it could not recompute (e.g. a user-attribute tier's
// integer keys) — the attribute-agnostic property CompactDir relies on.
func TestMergePreservesForeignDirectories(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[uint64]{
		Dir:    dir,
		KeysOf: func(m *types.Microblog) []uint64 { return []uint64{m.UserID} },
		Encode: func(u uint64) string { return string(rune('A' + u%26)) },
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	mk := func(id, user uint64) FlushRecord {
		f := fr(id, float64(id), "ignored")
		f.MB.UserID = user
		return f
	}
	if err := tier.Flush([]FlushRecord{mk(1, 1), mk(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{mk(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]uint64{1}, query.OpSingle, 10)
	if err != nil || len(items) != 2 {
		t.Fatalf("user search after merge: %d items, err=%v", len(items), err)
	}
}
