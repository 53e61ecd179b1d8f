package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// writeLogFile writes a sealed log file — frames and frame index, as the
// write-ahead log leaves one — framing recs, and returns them stamped
// with their frames.
func writeLogFile(t *testing.T, dir string, seq uint32, recs ...FlushRecord) []FlushRecord {
	t.Helper()
	var x PageIndex
	buf := AppendRecordPages(AppendLogHeader(nil), recs, &x)
	out := make([]FlushRecord, len(recs))
	for i, fr := range recs {
		fr.LogSeq, fr.LogOrd = seq, uint32(i)
		out[i] = fr
	}
	buf = AppendPageIndex(buf, &x)
	if err := os.WriteFile(filepath.Join(dir, LogName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// loggedTier opens a tier whose flushes name log files, tracking a log
// that holds none of them: drained files go once no directory names them.
func loggedTier(t *testing.T, dir string, fanout int) *Tier[string] {
	t.Helper()
	tier, err := Open(Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		LevelFanout: fanout,
		Logged:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	tier.cfg.Logs.Track(func(uint32) bool { return false })
	return tier
}

func answerIDs(t *testing.T, tier *Tier[string], key string, k int) string {
	t.Helper()
	items, err := tier.Search([]string{key}, query.OpSingle, k)
	if err != nil {
		t.Fatal(err)
	}
	var ids []types.ID
	for _, it := range items {
		ids = append(ids, it.MB.ID)
	}
	return fmt.Sprint(ids)
}

// TestLoggedFlushWritesOnlyDirectory: a Logged tier's flush writes one
// seg-* directory whose table names the log files holding the batch,
// and nothing else; searches read the records from those files, merges
// keep naming them, and no log file is ever rewritten — across flushes,
// a full compaction and a reopen.
func TestLoggedFlushWritesOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	a := writeLogFile(t, dir, 1, fr(1, 1, "k", "x"), fr(2, 2, "k"), fr(3, 3, "k", "x"))
	b := writeLogFile(t, dir, 2, fr(4, 4, "k"), fr(5, 5, "x"))
	logs := dirFiles(t, dir, "wal-*.kfw")
	tier := loggedTier(t, dir, 0)
	// Batches span both files and leave records of each unposted, as
	// records still in memory would.
	for _, batch := range [][]FlushRecord{{a[0], b[1]}, {a[2], b[0]}} {
		if err := tier.Flush(batch); err != nil {
			t.Fatal(err)
		}
	}
	if blocks := dirFiles(t, dir, "blk-*.kfs"); len(blocks) != 0 {
		t.Fatalf("a logged flush wrote record blocks %v", blocks)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		for _, bi := range info.Blocks {
			if !bi.Log || bi.Version != LogVersion || bi.Drained {
				t.Fatalf("%s names %+v, want an undrained log file", info.Path, bi)
			}
		}
	}
	const want = "[4 3 1]"
	if got := answerIDs(t, tier, "k", 10); got != want {
		t.Fatalf("answers %s, want %s", got, want)
	}
	if got := answerIDs(t, tier, "x", 10); got != "[5 3 1]" {
		t.Fatalf("answers for x: %s", got)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := answerIDs(t, tier, "k", 10); got != want {
		t.Fatalf("after CompactAll answers %s, want %s", got, want)
	}
	if _, recs, err := Verify(dir); err != nil || recs != 4 {
		t.Fatalf("verify: %d records, %v", recs, err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	again := loggedTier(t, dir, 0)
	if got := answerIDs(t, again, "k", 10); got != want {
		t.Fatalf("after reopen answers %s, want %s", got, want)
	}
	if got := dirFiles(t, dir, "wal-*.kfw"); fmt.Sprint(got) != fmt.Sprint(logs) {
		t.Fatalf("log files changed: %v, were %v", got, logs)
	}
}

// TestLoggedFlushRefusesUnsealedFile: a directory names only sealed log
// files — a file without its page index fails the flush, which leaves
// nothing behind.
func TestLoggedFlushRefusesUnsealedFile(t *testing.T) {
	dir := t.TempDir()
	recs := writeLogFile(t, dir, 1, fr(1, 1, "k"))
	path := filepath.Join(dir, LogName(1))
	img := AppendRecordPages(AppendLogHeader(nil), []FlushRecord{fr(1, 1, "k")}, &PageIndex{})
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	tier := loggedTier(t, dir, 0)
	if err := tier.Flush(recs); err == nil {
		t.Fatal("a flush named an unsealed log file")
	}
	if segs := dirFiles(t, dir, "seg-*"); len(segs) != 0 {
		t.Fatalf("failed flush left %v", segs)
	}
}

// TestDrainedLogFileGoesWhenUnnamed: a log file goes only once a
// committed manifest lists it drained and no live directory names it. A
// merge that leaves a file unnamed — every record it posted has a newer
// copy elsewhere — keeps it while it is undrained; the commit carrying
// its drain mark then removes it.
func TestDrainedLogFileGoesWhenUnnamed(t *testing.T) {
	dir := t.TempDir()
	old := writeLogFile(t, dir, 1, fr(1, 1, "k"), fr(2, 2, "k"))
	// File 2 frames record 1 again — a log upgraded twice holds such a
	// copy — flushed from there.
	cur := writeLogFile(t, dir, 2, fr(1, 1, "k"), fr(3, 3, "k"))
	tier := loggedTier(t, dir, 0)
	if err := tier.Flush(old[:1]); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush(cur); err != nil {
		t.Fatal(err)
	}
	// File 2 holds no memory claim any more: drained, but named. The
	// merge's commit carries the mark.
	tier.cfg.Logs.Drain(2)
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if !fileExists(filepath.Join(dir, LogName(2))) || !tier.cfg.Logs.Drained(2) {
		t.Fatal("a drained file a directory names was removed")
	}
	if !fileExists(filepath.Join(dir, LogName(1))) {
		t.Fatal("an undrained log file was removed when a merge stopped naming it")
	}
	tier.cfg.Logs.Drain(1)
	if !fileExists(filepath.Join(dir, LogName(1))) {
		t.Fatal("a drained log file went before a commit carried its mark")
	}
	if got := answerIDs(t, tier, "k", 10); got != "[3 1]" {
		t.Fatalf("answers %s", got)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if fileExists(filepath.Join(dir, LogName(1))) {
		t.Fatal("a drained log file no directory names is still on disk after the commit")
	}
	// The open heal-commits the drained list down to the files present.
	loggedTier(t, dir, 0)
	m, err := ReadManifest(dir)
	if err != nil || fmt.Sprint(m.Drained) != "["+LogName(2)+"]" {
		t.Fatalf("manifest drained list %v, %v", m.Drained, err)
	}
}

// sharedLogTiers opens, over one LogSet tracking a log that holds none
// of its files, the log's home tier in root/keyword and a tier in
// root/user, as a multi-attribute store's keyword and user engines
// share one log.
func sharedLogTiers(t *testing.T, root string) (home, user *Tier[string]) {
	t.Helper()
	logs := NewLogSet(filepath.Join(root, "keyword"))
	open := func(attr string) *Tier[string] {
		tier, err := Open(Config[string]{
			Dir:    filepath.Join(root, attr),
			KeysOf: func(m *types.Microblog) []string { return m.Keywords },
			Encode: func(s string) string { return s },
			Logged: true,
			Logs:   logs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tier.Close() })
		return tier
	}
	home, user = open("keyword"), open("user")
	logs.Track(func(uint32) bool { return false })
	return home, user
}

// mergeAwayDrainedFile leaves log file 1 of the store under root drained,
// its mark committed by the home tier, and named by user-tier
// directories alone, then merges the user tier, which drops the last of
// them: every record they post from file 1 has a newer copy in file 2.
// It closes both tiers and returns file 1's path and the merge's error.
func mergeAwayDrainedFile(t *testing.T, root string) (string, error) {
	t.Helper()
	dir := filepath.Join(root, "keyword")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := writeLogFile(t, dir, 1, fr(1, 1, "k"), fr(2, 2, "k"))
	cur := writeLogFile(t, dir, 2, fr(1, 1, "k"), fr(3, 3, "k"))
	home, user := sharedLogTiers(t, root)
	if err := user.Flush(old[:1]); err != nil {
		t.Fatal(err)
	}
	if err := user.Flush(cur); err != nil {
		t.Fatal(err)
	}
	home.cfg.Logs.Drain(1)
	// The home tier's flush commits the mark; the user tier keeps the file.
	if err := home.Flush(cur[1:]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName(1))
	if !fileExists(path) {
		t.Fatal("a drained file another tier's directory names was removed")
	}
	if m, err := ReadManifest(dir); err != nil || fmt.Sprint(m.Drained) != "["+LogName(1)+"]" {
		t.Fatalf("home manifest drained list %v, %v", m.Drained, err)
	}
	err := user.CompactAll()
	for _, tier := range []*Tier[string]{user, home} {
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return path, err
}

// TestDrainedLogFileGoesWhenUnnamedElsewhere: a drained log file whose
// last naming directory is in a tier other than the log's home goes
// when a merge of that tier drops the directory, through the same unlink
// as the home tier's merges.
func TestDrainedLogFileGoesWhenUnnamedElsewhere(t *testing.T) {
	path, err := mergeAwayDrainedFile(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if fileExists(path) {
		t.Fatal("a drained log file no tier names is still on disk after the merge")
	}
}
