package disk

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// leveledTier opens a tier with inline (foreground) compaction at the
// given fanout so tests are deterministic.
func leveledTier(t *testing.T, dir string, fanout int) *Tier[string] {
	t.Helper()
	tier, err := Open(Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		LevelFanout: fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// checkLevelInvariants asserts the structural invariants of a tier: every level at or below its fanout (compaction caught up), and
// the manifest on disk naming exactly the live segments at their levels.
func checkLevelInvariants(t *testing.T, tier *Tier[string], fanout int) {
	t.Helper()
	levels := tier.Levels()
	for _, lv := range levels {
		if lv.Segments > fanout {
			t.Fatalf("level %d holds %d segments, fanout %d", lv.Level, lv.Segments, fanout)
		}
	}
	m, err := ReadManifest(tier.cfg.Dir)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	manifestPerLevel := map[int]int{}
	for _, e := range m.Live {
		manifestPerLevel[e.Level]++
		if !fileExists(filepath.Join(tier.cfg.Dir, e.Name)) {
			t.Fatalf("manifest names %s at level %d but the file is gone", e.Name, e.Level)
		}
	}
	for _, lv := range levels {
		if manifestPerLevel[lv.Level] != lv.Segments {
			t.Fatalf("level %d: tier reports %d segments, manifest %d",
				lv.Level, lv.Segments, manifestPerLevel[lv.Level])
		}
	}
}

func TestLeveledStructureUnderFlushes(t *testing.T) {
	const fanout = 2
	tier := leveledTier(t, t.TempDir(), fanout)
	id := uint64(0)
	for batch := 0; batch < 12; batch++ {
		var recs []FlushRecord
		for i := 0; i < 5; i++ {
			id++
			recs = append(recs, fr(id, float64(id), "k", fmt.Sprintf("b%d", batch)))
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
		// Flush runs a compaction pass after every install, so the
		// invariants must hold after every single flush.
		checkLevelInvariants(t, tier, fanout)
	}
	st := tier.Stats()
	if st.Layout != "leveled" {
		t.Fatalf("layout = %q", st.Layout)
	}
	if st.Compactions == 0 {
		t.Fatal("12 flushes at fanout 2 ran no compactions")
	}
	var records int64
	for _, lv := range st.Levels {
		records += lv.Records
	}
	if records != int64(id) {
		t.Fatalf("levels hold %d records, flushed %d", records, id)
	}
	items, err := tier.Search([]string{"k"}, query.OpSingle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 {
		t.Fatalf("top-10 returned %d items", len(items))
	}
	for i, it := range items {
		if want := id - uint64(i); uint64(it.MB.ID) != want {
			t.Fatalf("item %d = ID %d, want %d", i, it.MB.ID, want)
		}
	}
}

// TestLeveledUncompactedEquivalence drives the identical seeded workload
// into a reference tier that never compacts — every flush stays its own
// L0 segment, searched newest-first, the naive organization leveling
// replaced — and a leveled tier (a pass after every Flush), and requires every
// query answer to match item-for-item: leveling must be invisible to
// readers.
func TestLeveledUncompactedEquivalence(t *testing.T) {
	flat, err := Open(Config[string]{
		Dir:         t.TempDir(),
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	leveled := leveledTier(t, t.TempDir(), 2)

	rng := rand.New(rand.NewSource(61))
	keys := []string{"a", "b", "c", "d", "e"}
	id := uint64(0)
	for batch := 0; batch < 20; batch++ {
		var recs []FlushRecord
		for i := 0; i < 4+rng.Intn(8); i++ {
			id++
			kws := []string{keys[rng.Intn(len(keys))]}
			if rng.Intn(3) == 0 {
				kws = append(kws, keys[rng.Intn(len(keys))])
			}
			recs = append(recs, fr(id, float64(rng.Intn(1000)), kws...))
		}
		for _, tier := range []*Tier[string]{flat, leveled} {
			if err := tier.Flush(recs); err != nil {
				t.Fatal(err)
			}
		}
	}

	if got, want := flat.Stats(), 20; got.Segments != want || got.Compactions != 0 {
		t.Fatalf("reference tier: %d segments, %d compactions; want %d uncompacted", got.Segments, got.Compactions, want)
	}
	if leveled.Stats().Compactions == 0 {
		t.Fatal("leveled tier never compacted; the comparison is vacuous")
	}

	queries := []struct {
		keys []string
		op   query.Op
	}{
		{[]string{"a"}, query.OpSingle},
		{[]string{"b"}, query.OpSingle},
		{[]string{"a", "c"}, query.OpOr},
		{[]string{"a", "b"}, query.OpAnd},
		{[]string{"a", "b", "c", "d", "e"}, query.OpOr},
		{[]string{"nope"}, query.OpSingle},
	}
	for _, q := range queries {
		for _, k := range []int{1, 5, 20, 1000} {
			want, err := flat.Search(q.keys, q.op, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := leveled.Search(q.keys, q.op, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("leveled %v/%v k=%d: %d items, reference %d", q.keys, q.op, k, len(got), len(want))
			}
			for i := range want {
				if got[i].MB.ID != want[i].MB.ID || got[i].Score != want[i].Score {
					t.Fatalf("leveled %v/%v k=%d item %d: got (ID %d, %g), reference (ID %d, %g)",
						q.keys, q.op, k, i,
						got[i].MB.ID, got[i].Score, want[i].MB.ID, want[i].Score)
				}
			}
		}
	}
}

func TestLeveledReopenIdempotent(t *testing.T) {
	dir := t.TempDir()
	tier := leveledTier(t, dir, 2)
	id := uint64(0)
	for batch := 0; batch < 7; batch++ {
		var recs []FlushRecord
		for i := 0; i < 3; i++ {
			id++
			recs = append(recs, fr(id, float64(id), "k"))
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
	wantSegs := tier.Segments()
	wantItems, err := tier.Search([]string{"k"}, query.OpSingle, int(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	// Two consecutive reopens: both must see the identical layout and
	// answers, and the second must not be confused by whatever the first
	// rewrote (manifest heal-commit is idempotent).
	for round := 1; round <= 2; round++ {
		reopened := leveledTier(t, dir, 2)
		gotSegs := reopened.Segments()
		sort.Strings(gotSegs)
		sorted := append([]string(nil), wantSegs...)
		sort.Strings(sorted)
		if len(gotSegs) != len(sorted) {
			t.Fatalf("reopen %d: %d segments, want %d", round, len(gotSegs), len(sorted))
		}
		for i := range sorted {
			if gotSegs[i] != sorted[i] {
				t.Fatalf("reopen %d: segment %d = %s, want %s", round, i, gotSegs[i], sorted[i])
			}
		}
		got, err := reopened.Search([]string{"k"}, query.OpSingle, int(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantItems) {
			t.Fatalf("reopen %d: %d items, want %d", round, len(got), len(wantItems))
		}
		for i := range wantItems {
			if got[i].MB.ID != wantItems[i].MB.ID {
				t.Fatalf("reopen %d item %d: ID %d, want %d", round, i, got[i].MB.ID, wantItems[i].MB.ID)
			}
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeveledAdoptionRules exercises the openLeveled recovery rules
// directly on crafted directories.
func TestLeveledAdoptionRules(t *testing.T) {
	t.Run("missing manifest adopts everything", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 2)
		id := uint64(0)
		for batch := 0; batch < 5; batch++ {
			id++
			if err := tier.Flush([]FlushRecord{fr(id, float64(id), "k")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "manifest.kfm")); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 2)
		items, err := reopened.Search([]string{"k"}, query.OpSingle, int(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != int(id) {
			t.Fatalf("adopted tier answers %d of %d records", len(items), id)
		}
		// The heal-commit must leave a fresh valid manifest behind.
		if _, err := ReadManifest(dir); err != nil {
			t.Fatalf("no healed manifest after adoption open: %v", err)
		}
	})

	// The shape the deleted flat layout left on disk — one
	// seg-* file per flush and no manifest — in current formats, as an
	// upgrade of such a directory without a manifest leaves it.
	t.Run("legacy manifest-less seg directory", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config[string]{
			Dir:         dir,
			KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
			Encode:      func(s string) string { return s },
			MaxSegments: -1,
		}
		writer, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		keys := []string{"a", "b", "c"}
		id := uint64(0)
		for batch := 0; batch < 9; batch++ {
			var recs []FlushRecord
			for i := 0; i < 6; i++ {
				id++
				recs = append(recs, fr(id, float64(rng.Intn(100)), keys[rng.Intn(3)], keys[rng.Intn(3)]))
			}
			if err := writer.Flush(recs); err != nil {
				t.Fatal(err)
			}
		}
		queries := []struct {
			keys []string
			op   query.Op
		}{
			{[]string{"a"}, query.OpSingle},
			{[]string{"a", "b"}, query.OpOr},
			{[]string{"b", "c"}, query.OpAnd},
			{[]string{"nope"}, query.OpSingle},
		}
		answers := func(tier *Tier[string]) []string {
			var out []string
			for _, q := range queries {
				for _, k := range []int{1, 7, 1000} {
					items, err := tier.Search(q.keys, q.op, k)
					if err != nil {
						t.Fatal(err)
					}
					line := fmt.Sprintf("%v/%v/k=%d:", q.keys, q.op, k)
					for _, it := range items {
						line += fmt.Sprintf(" %d@%g", it.MB.ID, it.Score)
					}
					out = append(out, line)
				}
			}
			return out
		}
		want := answers(writer)
		if err := writer.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "manifest.kfm")); err != nil {
			t.Fatal(err)
		}
		if lvl, _ := filepath.Glob(filepath.Join(dir, "lvl-*")); len(lvl) != 0 {
			t.Fatalf("fixture holds compaction outputs %v; a flat directory has none", lvl)
		}

		// Opened by the default configuration (compaction on), twice.
		var segs []string
		for round := 1; round <= 2; round++ {
			reopened := leveledTier(t, dir, 0)
			if round == 1 {
				segs = reopened.Segments()
			}
			if got := reopened.Segments(); len(got) != 9 || fmt.Sprint(got) != fmt.Sprint(segs) {
				t.Fatalf("reopen %d: segments %v, want the 9 adopted first (%v)", round, got, segs)
			}
			got := answers(reopened)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("reopen %d:\n got %s\nwant %s", round, got[i], want[i])
				}
			}
			m, err := ReadManifest(dir)
			if err != nil {
				t.Fatalf("reopen %d: no healed manifest: %v", round, err)
			}
			if len(m.Live) != len(segs) {
				t.Fatalf("reopen %d: healed manifest lists %d live segments, want %d", round, len(m.Live), len(segs))
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("corrupt manifest adopts everything", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 2)
		for id := uint64(1); id <= 4; id++ {
			if err := tier.Flush([]FlushRecord{fr(id, float64(id), "k")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.kfm"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 2)
		items, err := reopened.Search([]string{"k"}, query.OpSingle, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 4 {
			t.Fatalf("adopted tier answers %d of 4 records", len(items))
		}
	})

	t.Run("unreferenced seg file adopted at L0", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 4)
		if err := tier.Flush([]FlushRecord{fr(1, 1, "k")}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		// A segment that exists on disk but missed its manifest commit —
		// the DiskLevelInstall crash window. Simulate by cloning the live
		// segment under a higher unreferenced sequence number.
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.kfs"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("glob: %v %v", segs, err)
		}
		b, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		orphan := filepath.Join(dir, "seg-00009999.kfs")
		if err := os.WriteFile(orphan, b, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 4)
		if got := len(reopened.Segments()); got != 2 {
			t.Fatalf("orphan seg not adopted: %d live segments, want 2", got)
		}
		// Duplicate IDs across segments (replay double-write) must not
		// produce duplicate answers.
		items, err := reopened.Search([]string{"k"}, query.OpSingle, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 1 {
			t.Fatalf("duplicate adopted record answered %d times", len(items))
		}
	})

	// The two-file flush's first window: the block renamed live, its
	// directory not yet. Nothing names the block, its records are still
	// in the WAL: open deletes it.
	t.Run("orphan block deleted", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 4)
		if err := tier.Flush([]FlushRecord{fr(1, 1, "k")}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "blk-00000001.kfs"))
		if err != nil {
			t.Fatal(err)
		}
		orphan := filepath.Join(dir, "blk-00000002.kfs")
		if err := os.WriteFile(orphan, b, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 4)
		if fileExists(orphan) {
			t.Fatal("a block no directory names survived open")
		}
		if st := reopened.Stats(); st.Segments != 1 || st.Blocks != 1 {
			t.Fatalf("%d segments over %d blocks, want 1 over 1", st.Segments, st.Blocks)
		}
		// The sequence number is not reused while the name might exist.
		if err := reopened.Flush([]FlushRecord{fr(2, 2, "k")}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(reopened.Segments()); got != "[seg-00000001.kfs seg-00000003.kfs]" {
			t.Fatalf("segments after the next flush: %s", got)
		}
	})

	// The second window: block and directory both live, the manifest not
	// yet committed — the real thing, made by rewinding the manifest past
	// a flush.
	t.Run("uncommitted flush adopted with its block", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 4)
		if err := tier.Flush([]FlushRecord{fr(1, 1, "k")}); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if err := tier.Flush([]FlushRecord{fr(2, 2, "k"), fr(3, 3, "k")}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), before, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 4)
		if st := reopened.Stats(); st.Segments != 2 || st.Blocks != 2 {
			t.Fatalf("%d segments over %d blocks, want 2 over 2", st.Segments, st.Blocks)
		}
		items, err := reopened.Search([]string{"k"}, query.OpSingle, 10)
		if err != nil || len(items) != 3 {
			t.Fatalf("search: %d of 3 records, err=%v", len(items), err)
		}
		// The rewound manifest's high-water mark (1) does not cover the
		// adopted segment: it is read back from the blocks.
		if m, err := ReadManifest(dir); err != nil || len(m.Live) != 2 || m.MaxRecordID != 3 {
			t.Fatalf("healed manifest: %+v, err=%v", m, err)
		}
	})

	// The merge's windows. Before the commit the merged directory is an
	// unreferenced lvl-* file: open deletes it and the blocks it names
	// stay, still named by the live inputs. After the commit the inputs
	// are retired files: open deletes them and the blocks stay, now named
	// by the merged directory.
	t.Run("merge windows leave every block", func(t *testing.T) {
		dir := t.TempDir()
		tier, err := Open(Config[string]{
			Dir:         dir,
			KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
			Encode:      func(s string) string { return s },
			MaxSegments: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 5; id++ {
			if err := tier.Flush([]FlushRecord{fr(id, float64(id), "k")}); err != nil {
				t.Fatal(err)
			}
		}
		inputs := map[string][]byte{}
		for _, name := range tier.Segments() {
			if inputs[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		uncommitted, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if err := tier.CompactAll(); err != nil {
			t.Fatal(err)
		}
		merged := tier.Segments()
		if len(merged) != 1 {
			t.Fatalf("segments after CompactAll: %v", merged)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		blocks := dirFiles(t, dir, "blk-*.kfs")
		if len(blocks) != 5 {
			t.Fatalf("%d blocks on disk", len(blocks))
		}
		restoreInputs := func() {
			for name, b := range inputs {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(label string, wantSegments int, gone ...string) {
			t.Helper()
			reopened := leveledTier(t, dir, 0)
			defer reopened.Close()
			if st := reopened.Stats(); st.Segments != wantSegments || st.Blocks != 5 {
				t.Fatalf("%s: %d segments over %d blocks, want %d over 5", label, st.Segments, st.Blocks, wantSegments)
			}
			for _, name := range gone {
				if fileExists(filepath.Join(dir, name)) {
					t.Fatalf("%s: %s survived open", label, name)
				}
			}
			if got := dirFiles(t, dir, "blk-*.kfs"); fmt.Sprint(got) != fmt.Sprint(blocks) {
				t.Fatalf("%s: blocks changed: %v, were %v", label, got, blocks)
			}
			items, err := reopened.Search([]string{"k"}, query.OpSingle, 10)
			if err != nil || len(items) != 5 {
				t.Fatalf("%s: %d of 5 records, err=%v", label, len(items), err)
			}
		}

		// Inputs retired by the committed manifest, not yet unlinked.
		mergedBytes, err := os.ReadFile(filepath.Join(dir, merged[0]))
		if err != nil {
			t.Fatal(err)
		}
		restoreInputs()
		retired := Manifest{NextSeq: 7, Live: []ManifestEntry{{Name: merged[0], Level: 1}}}
		for name := range inputs {
			retired.Retired = append(retired.Retired, name)
		}
		if err := writeManifest(dir, retired); err != nil {
			t.Fatal(err)
		}
		check("inputs retired", 1, retired.Retired...)

		// Merged directory live, manifest not committed.
		restoreInputs()
		if err := os.WriteFile(filepath.Join(dir, merged[0]), mergedBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), uncommitted, 0o644); err != nil {
			t.Fatal(err)
		}
		check("merge uncommitted", 5, merged[0])
	})

	t.Run("unreferenced lvl file deleted", func(t *testing.T) {
		dir := t.TempDir()
		tier := leveledTier(t, dir, 4)
		if err := tier.Flush([]FlushRecord{fr(1, 1, "k")}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		// An lvl-* file a valid manifest does not reference is a dead
		// compaction output superseded before commit; its contents are a
		// subset of still-live inputs, so open must delete, never adopt.
		stray := filepath.Join(dir, "lvl-00009999.kfs")
		if err := os.WriteFile(stray, []byte("half-written merge"), 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := leveledTier(t, dir, 4)
		if fileExists(stray) {
			t.Fatal("unreferenced lvl file survived open")
		}
		if got := len(reopened.Segments()); got != 1 {
			t.Fatalf("%d live segments, want 1", got)
		}
	})

	// Rule 6: a log file belongs to the write-ahead log until the
	// manifest lists it drained. Named or not, an undrained one is kept —
	// the log replays it. A drained one goes only in the sweep of a tier
	// tracking the log (loggedTier tracks one that holds nothing).
	t.Run("unnamed undrained log file kept", func(t *testing.T) {
		dir := t.TempDir()
		writeLogFile(t, dir, 3, fr(1, 1, "k"))
		tier := loggedTier(t, dir, 4)
		if !fileExists(filepath.Join(dir, LogName(3))) || tier.cfg.Logs.Drained(3) {
			t.Fatal("an undrained log file did not survive open")
		}
	})

	t.Run("drained unnamed log file deleted", func(t *testing.T) {
		dir := t.TempDir()
		writeLogFile(t, dir, 3, fr(1, 1, "k"))
		writeLogFile(t, dir, 4, fr(2, 2, "k"))
		// File 4 is named by a flush that missed its commit; the drain
		// marks of files 3, 4 and 9 (gone) did not.
		tier := loggedTier(t, dir, 4)
		if err := tier.Flush([]FlushRecord{{MB: fr(2, 2, "k").MB, Score: 2, LogSeq: 4}}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(dir, Manifest{NextSeq: 2, Drained: []string{LogName(3), LogName(4), LogName(9)}}); err != nil {
			t.Fatal(err)
		}
		reopened := loggedTier(t, dir, 4)
		if fileExists(filepath.Join(dir, LogName(3))) {
			t.Fatal("a drained log file no directory names survived open")
		}
		if !fileExists(filepath.Join(dir, LogName(4))) {
			t.Fatal("a drained log file an adopted directory names was deleted")
		}
		if got := answerIDs(t, reopened, "k", 5); got != "[2]" {
			t.Fatalf("answers %s", got)
		}
		m, err := ReadManifest(dir)
		if err != nil || fmt.Sprint(m.Drained) != "["+LogName(4)+"]" {
			t.Fatalf("healed drained list %v, %v", m.Drained, err)
		}
	})

	// Rule 2 over log files: a durable store's flush whose directory
	// went live without its commit is adopted with the sealed files it
	// names.
	t.Run("uncommitted directory naming sealed log files adopted", func(t *testing.T) {
		dir := t.TempDir()
		a := writeLogFile(t, dir, 1, fr(1, 1, "k"), fr(2, 2, "k"))
		b := writeLogFile(t, dir, 2, fr(3, 3, "k"))
		tier := loggedTier(t, dir, 4)
		before, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if err := tier.Flush([]FlushRecord{a[1], b[0]}); err != nil {
			t.Fatal(err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), before, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := loggedTier(t, dir, 4)
		if got := len(reopened.Segments()); got != 1 {
			t.Fatalf("%d live segments after adoption, want 1", got)
		}
		if got := answerIDs(t, reopened, "k", 5); got != "[3 2]" {
			t.Fatalf("adopted directory answers %s", got)
		}
		if reopened.MaxRecordID() != 3 {
			t.Fatalf("high-water mark %d after adoption, want 3", reopened.MaxRecordID())
		}
	})
}

// TestLeveledCompactAll folds an arbitrary level tree down to one
// segment and verifies the disk ID set is preserved with global
// uniqueness — the machine-checkable "no duplicate postings across
// levels" invariant.
func TestLeveledCompactAll(t *testing.T) {
	tier := leveledTier(t, t.TempDir(), 2)
	want := map[uint64]bool{}
	id := uint64(0)
	for batch := 0; batch < 9; batch++ {
		var recs []FlushRecord
		for i := 0; i < 4; i++ {
			id++
			want[id] = true
			recs = append(recs, fr(id, float64(id%13), "k"))
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := len(tier.Segments()); got != 1 {
		t.Fatalf("CompactAll left %d segments", got)
	}
	items, err := tier.Search([]string{"k"}, query.OpSingle, len(want)*2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, it := range items {
		if seen[uint64(it.MB.ID)] {
			t.Fatalf("ID %d appears twice after CompactAll", it.MB.ID)
		}
		seen[uint64(it.MB.ID)] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("CompactAll preserved %d of %d IDs", len(seen), len(want))
	}
	for wid := range want {
		if !seen[wid] {
			t.Fatalf("ID %d lost by CompactAll", wid)
		}
	}
}

// TestLeveledPropertyVsModel is a model-based property test: random
// flush batches interleaved with compactions at random points, checked
// after every step against an in-memory model of what each key's top-k
// must be.
func TestLeveledPropertyVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tier := leveledTier(t, t.TempDir(), 2)
	keys := []string{"p", "q", "r"}
	model := map[string][]FlushRecord{}
	id := uint64(0)

	check := func(step int) {
		for _, key := range keys {
			recs := append([]FlushRecord(nil), model[key]...)
			sort.Slice(recs, func(i, j int) bool {
				if recs[i].Score != recs[j].Score {
					return recs[i].Score > recs[j].Score
				}
				return recs[i].MB.ID > recs[j].MB.ID
			})
			k := 7
			if k > len(recs) {
				k = len(recs)
			}
			items, err := tier.Search([]string{key}, query.OpSingle, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != k {
				t.Fatalf("step %d key %s: %d items, model %d", step, key, len(items), k)
			}
			for i := 0; i < k; i++ {
				if items[i].MB.ID != recs[i].MB.ID || items[i].Score != recs[i].Score {
					t.Fatalf("step %d key %s item %d: got (ID %d, %g), model (ID %d, %g)",
						step, key, i, items[i].MB.ID, items[i].Score, recs[i].MB.ID, recs[i].Score)
				}
			}
		}
	}

	for step := 0; step < 60; step++ {
		switch rng.Intn(10) {
		case 0:
			if err := tier.CompactAll(); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tier.CompactNow(); err != nil {
				t.Fatal(err)
			}
		default:
			var recs []FlushRecord
			for i := 0; i < 1+rng.Intn(5); i++ {
				id++
				key := keys[rng.Intn(len(keys))]
				rec := fr(id, float64(rng.Intn(50)), key)
				recs = append(recs, rec)
				model[key] = append(model[key], rec)
			}
			if err := tier.Flush(recs); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
}
