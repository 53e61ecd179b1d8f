package disk

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

func inode(t *testing.T, path string) uint64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Sys().(*syscall.Stat_t).Ino
}

func sum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// fileIdentity is what must not change about a file nothing rewrote.
func fileIdentity(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d bytes, inode %d, sum %x", len(b), inode(t, path), sum(b))
}

// blockVersions renders a segment's block table as name/version pairs.
func blockVersions(info SegmentInfo) string {
	out := ""
	for _, b := range info.Blocks {
		out += fmt.Sprintf("%s/v%d ", b.Name, b.Version)
	}
	return out
}

// dirFiles maps every file under dir matching pattern to its identity
// (size, inode, checksum).
func dirFiles(t *testing.T, dir, pattern string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		out[filepath.Base(p)] = fileIdentity(t, p)
	}
	return out
}

func dirBytes(t *testing.T, dir, pattern string) (total int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestCompactionRewritesNoRecords is the claim of the v3 layout, checked
// from outside: level merges and a full compaction create directory
// files only — every record block keeps its name, size, inode and bytes
// — and what they create is a small fraction of what they merged.
func TestCompactionRewritesNoRecords(t *testing.T) {
	dir := t.TempDir()
	tier := fastTier(t, Config[string]{Dir: dir, MaxSegments: -1})
	// Records shaped like the benchmark's: ~1.4 keys each from a wide
	// vocabulary, a text body that dominates the bytes.
	id := uint64(0)
	flush := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			recs := make([]FlushRecord, 400)
			for i := range recs {
				id++
				kws := []string{fmt.Sprintf("tag%05d", id*7919%6000)}
				if id%5 < 2 {
					kws = append(kws, fmt.Sprintf("tag%05d", id*104729%6000))
				}
				rec := fr(id, float64(id*2654435761%100000), kws...)
				rec.MB.Text = fmt.Sprintf("%0120d", id)
				recs[i] = rec
			}
			if err := tier.Flush(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass := func(label string, compact func() error, wantBlocks int) {
		t.Helper()
		blocks := dirFiles(t, dir, "blk-*.kfs")
		if len(blocks) != wantBlocks {
			t.Fatalf("%d block files before %s, want %d", len(blocks), label, wantBlocks)
		}
		before := dirFiles(t, dir, "*.kfs")
		inputBytes := dirBytes(t, dir, "*.kfs")
		want := searchAll(t, tier)
		if err := compact(); err != nil {
			t.Fatal(err)
		}
		if got := dirFiles(t, dir, "blk-*.kfs"); fmt.Sprint(got) != fmt.Sprint(blocks) {
			t.Fatalf("%s changed the record blocks:\n got %v\nwant %v", label, got, blocks)
		}
		var created int64
		for name := range dirFiles(t, dir, "*.kfs") {
			if _, old := before[name]; !old {
				created += dirBytes(t, dir, name)
			}
		}
		if created == 0 || created*100 >= inputBytes*15 {
			t.Fatalf("%s created %d bytes of files over %d bytes of input, want > 0 and < 15%%", label, created, inputBytes)
		}
		if st := tier.Stats(); st.Segments != 1 || st.Blocks != wantBlocks || st.ShadowedRecordBytes != 0 {
			t.Fatalf("%s left %d segments over %d blocks (%d shadowed bytes), want 1 over %d (0)",
				label, st.Segments, st.Blocks, st.ShadowedRecordBytes, wantBlocks)
		}
		if got := searchAll(t, tier); got != want {
			t.Fatalf("%s changed answers:\n got %s\nwant %s", label, got, want)
		}
	}
	// A level merge (nine L0 segments over the fanout of four fold into
	// one L1 segment), then another flush and the fold of both levels
	// into one segment.
	flush(9)
	tier.cfg.MaxSegments = 0
	pass("CompactNow", tier.CompactNow, 9)
	tier.cfg.MaxSegments = -1
	flush(1)
	pass("CompactAll", tier.CompactAll, 10)
	if segs, recs, err := Verify(dir); err != nil || segs != 1 || recs != int(id) {
		t.Fatalf("verify: segs=%d recs=%d err=%v", segs, recs, err)
	}
}

// searchAll renders the answers to a fixed query set as one string.
func searchAll(t *testing.T, tier *Tier[string]) string {
	t.Helper()
	var out bytes.Buffer
	queries := []struct {
		keys []string
		op   query.Op
	}{
		{[]string{"tag00001"}, query.OpSingle},
		{[]string{"tag00007"}, query.OpSingle},
		{[]string{"tag00001", "tag00002", "tag00003"}, query.OpOr},
		{[]string{"tag03919", "tag02729"}, query.OpAnd},
		{[]string{"absent"}, query.OpSingle},
	}
	for _, q := range queries {
		for _, k := range []int{1, 5, 50} {
			items, err := tier.Search(q.keys, q.op, k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%v/%v/%d:", q.keys, q.op, k)
			for _, it := range items {
				fmt.Fprintf(&out, " %d@%g", it.MB.ID, it.Score)
			}
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// TestRecordCacheSurvivesCompaction: the cache is keyed by (block,
// ordinal), and a merge keeps blocks, so a record read before a merge is
// a cache hit after it.
func TestRecordCacheSurvivesCompaction(t *testing.T) {
	tier := fastTier(t, Config[string]{MaxSegments: -1})
	fillSegments(t, tier, 5, 20)
	if _, err := tier.Search([]string{"common"}, query.OpSingle, 10); err != nil {
		t.Fatal(err)
	}
	cold := tier.Stats()
	if cold.RecordReads == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold search: %d reads, %d cache hits", cold.RecordReads, cold.CacheHits)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := tier.Stats().Segments; got != 1 {
		t.Fatalf("%d segments after CompactAll", got)
	}
	items, err := tier.Search([]string{"common"}, query.OpSingle, 10)
	if err != nil || len(items) != 10 {
		t.Fatalf("search after merge: %d items, err=%v", len(items), err)
	}
	warm := tier.Stats()
	if warm.RecordReads != cold.RecordReads || warm.CacheHits != 10 {
		t.Fatalf("after the merge the same search did %d preads and %d cache hits, want 0 and 10",
			warm.RecordReads-cold.RecordReads, warm.CacheHits)
	}
}

// TestStagedFilesDeterministic: the same batch yields byte-identical
// block and directory files, whatever order the keys map iterates in.
func TestStagedFilesDeterministic(t *testing.T) {
	var recs []FlushRecord
	for id := uint64(1); id <= 300; id++ {
		recs = append(recs, fr(id, float64(id%37), fmt.Sprintf("k%d", id%53), fmt.Sprintf("j%d", id%11)))
	}
	image := func() (blk, dir []byte) {
		d := t.TempDir()
		tier := fastTier(t, Config[string]{Dir: d, MaxSegments: -1})
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
		blk, err := os.ReadFile(filepath.Join(d, "blk-00000001.kfs"))
		if err != nil {
			t.Fatal(err)
		}
		dir, err = os.ReadFile(filepath.Join(d, "seg-00000001.kfs"))
		if err != nil {
			t.Fatal(err)
		}
		return blk, dir
	}
	blk0, dir0 := image()
	for round := 0; round < 5; round++ {
		blk, dir := image()
		if !bytes.Equal(blk, blk0) || !bytes.Equal(dir, dir0) {
			t.Fatalf("round %d: staging the same batch produced different files (block equal: %v, directory equal: %v)",
				round, bytes.Equal(blk, blk0), bytes.Equal(dir, dir0))
		}
	}
}

// TestShadowedBlocks covers what a merge does with records stored
// twice: posted once from the newest block, the older copy counted as
// shadowed bytes, and a block with no record left to post dropped from
// the output and unlinked — but only once no live directory names it.
func TestShadowedBlocks(t *testing.T) {
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
	defer func() { tier.Close() }()
	// blk-1 {1,2}: wholly re-flushed later. blk-2 {3,4}: half re-flushed.
	// blk-3 {1,2,3,5}: the recovery replay's re-flush.
	for _, batch := range [][]FlushRecord{
		{fr(1, 1, "k", "a"), fr(2, 2, "k")},
		{fr(3, 3, "k"), fr(4, 4, "k", "a")},
		{fr(1, 1, "k", "a"), fr(2, 2, "k"), fr(3, 3, "k"), fr(5, 5, "k")},
	} {
		if err := tier.Flush(batch); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(on *Tier[string]) string {
		var out []string
		for _, key := range []string{"k", "a"} {
			items, err := on.Search([]string{key}, query.OpSingle, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				out = append(out, fmt.Sprintf("%s:%d", key, it.MB.ID))
			}
		}
		return fmt.Sprint(out)
	}
	want := answers(tier)
	if want != "[k:5 k:4 k:3 k:2 k:1 a:4 a:1]" {
		t.Fatalf("answers before the merge: %s", want)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := answers(tier); got != want {
		t.Fatalf("answers after the merge: %s, want %s", got, want)
	}
	st := tier.Stats()
	rec3, err := os.Stat(filepath.Join(dir, "blk-00000002.kfs"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.Blocks != 2 || st.Levels[len(st.Levels)-1].Records != 5 {
		t.Fatalf("after the merge: %d segments over %d blocks, levels %+v; want 1 over 2 holding 5 live records", st.Segments, st.Blocks, st.Levels)
	}
	if st.ShadowedRecordBytes <= 0 || st.ShadowedRecordBytes >= rec3.Size() {
		t.Fatalf("shadowed bytes = %d, want record 3's copy in a %d-byte block", st.ShadowedRecordBytes, rec3.Size())
	}
	if fileExists(filepath.Join(dir, "blk-00000001.kfs")) {
		t.Fatal("the fully shadowed block survived the merge")
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || blockVersions(infos[0]) != "blk-00000002.kfs/v6 blk-00000003.kfs/v6 " || infos[0].ShadowedBytes != st.ShadowedRecordBytes {
		t.Fatalf("inspect after the merge: %+v", infos)
	}
	if _, recs, err := Verify(dir); err != nil || recs != 5 {
		t.Fatalf("verify: %d records, err=%v", recs, err)
	}
	// The shape survives a reopen, shadowed-byte count included.
	tier.Close()
	if tier, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if got := answers(tier); got != want {
		t.Fatalf("answers after reopen: %s, want %s", got, want)
	}
	if re := tier.Stats(); re.Blocks != 2 || re.ShadowedRecordBytes != st.ShadowedRecordBytes {
		t.Fatalf("reopened: %d blocks, %d shadowed bytes; want 2, %d", re.Blocks, re.ShadowedRecordBytes, st.ShadowedRecordBytes)
	}
	var dumped []string
	paths, _ := filepath.Glob(filepath.Join(dir, "lvl-*.kfs"))
	if len(paths) != 1 {
		t.Fatalf("directories on disk: %v", paths)
	}
	if err := DumpSegment(paths[0], func(fr FlushRecord) error {
		dumped = append(dumped, fmt.Sprint(fr.MB.ID))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(dumped)
	if fmt.Sprint(dumped) != "[1 2 3 4 5]" {
		t.Fatalf("dump of the merged directory: %v, want each live record once", dumped)
	}
}

// TestSharedBlockOutlivesOneDirectory: adoption can leave two live
// directories naming one block. A merge that drops the block from its
// own output must not unlink it under the other directory.
func TestSharedBlockOutlivesOneDirectory(t *testing.T) {
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
	defer func() { tier.Close() }()
	if err := tier.Flush([]FlushRecord{fr(1, 1, "k"), fr(2, 2, "k")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.CompactAll(); err != nil { // single segment: nothing to do
		t.Fatal(err)
	}
	tier.Close()
	// A second directory over blk-1, at L1 — what adopting a retired-but-
	// not-yet-unlinked merge input beside its output looks like.
	b, err := os.ReadFile(filepath.Join(dir, "seg-00000001.kfs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lvl-00000002.kfs"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if tier, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if st := tier.Stats(); st.Segments != 2 || st.Blocks != 1 {
		t.Fatalf("adopted %d segments over %d blocks, want 2 over 1", st.Segments, st.Blocks)
	}
	// A re-flush shadows blk-1 entirely; merging L0 alone drops it from
	// the output while lvl-2 at L1 still names it.
	if err := tier.Flush([]FlushRecord{fr(1, 1, "k"), fr(2, 2, "k")}); err != nil {
		t.Fatal(err)
	}
	tier.compactMu.Lock()
	err = tier.compactLevel(0, true)
	tier.compactMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !fileExists(filepath.Join(dir, "blk-00000001.kfs")) {
		t.Fatal("a block still named by a live directory was unlinked")
	}
	tier.cache = newRecordCache(DefaultCacheBytes, nil) // cold: the next reads must come from the files
	items, err := tier.Search([]string{"k"}, query.OpSingle, 10)
	if err != nil || len(items) != 2 {
		t.Fatalf("search: %d items, err=%v", len(items), err)
	}
	// Folding everything merges the last directory naming blk-1 away.
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if fileExists(filepath.Join(dir, "blk-00000001.kfs")) {
		t.Fatal("the shadowed block outlived every directory naming it")
	}
	if items, err = tier.Search([]string{"k"}, query.OpSingle, 10); err != nil || len(items) != 2 {
		t.Fatalf("search after full merge: %d items, err=%v", len(items), err)
	}
}
