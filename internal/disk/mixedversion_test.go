package disk

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// writeV2Segment fabricates a genuine legacy (format v2) segment file —
// records, offsets, key section, Bloom and footer in one file — byte for
// byte as a process running a release before PR 22 would have left it,
// including a key section in no particular order (v2 wrote it in map
// order; here, descending, so a reader that assumed sorted keys fails).
func writeV2Segment(t *testing.T, dir, name string, recs []FlushRecord) {
	t.Helper()
	sorted := append([]FlushRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		return sorted[i].MB.ID > sorted[j].MB.ID
	})
	le := binary.LittleEndian
	buf := append([]byte(segMagic), 2, 0, 0, 0)
	buf = le.AppendUint32(buf, uint32(len(sorted)))
	offsets := make([]uint64, len(sorted))
	maxScore := math.Inf(-1)
	postings := make(map[string][]uint32)
	for ord, fr := range sorted {
		offsets[ord] = uint64(len(buf))
		buf = appendRecord(buf, fr)
		maxScore = math.Max(maxScore, fr.Score)
		for _, kw := range fr.MB.Keywords {
			postings[kw] = append(postings[kw], uint32(ord))
		}
	}
	offsetsPos := uint64(len(buf))
	for _, off := range offsets {
		buf = le.AppendUint64(buf, off)
	}
	keys := make([]string, 0, len(postings))
	for key := range postings {
		keys = append(keys, key)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	keysPos := uint64(len(buf))
	buf = le.AppendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		buf = le.AppendUint16(buf, uint16(len(key)))
		buf = append(buf, key...)
		buf = le.AppendUint32(buf, uint32(len(postings[key])))
		for _, p := range postings[key] {
			buf = le.AppendUint32(buf, p)
		}
	}
	bloomPos := uint64(len(buf))
	buf = newBloomFilter(keys).encode(buf)
	buf = le.AppendUint64(buf, offsetsPos)
	buf = le.AppendUint64(buf, keysPos)
	buf = le.AppendUint64(buf, bloomPos)
	buf = le.AppendUint64(buf, math.Float64bits(maxScore))
	buf = append(buf, segEndMagic...)
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileIdentity is what must not change about a file nothing rewrote.
func fileIdentity(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d bytes, inode %d, sum %x", len(b), inode(t, path), sum(b))
}

// TestMixedVersionTier runs the full compatibility story: a directory
// holding legacy single-file v2 segments must recover beside new
// two-file flushes, answer searches correctly from both, and merge — the
// legacy files ending up as blocks of the merged directory, their bytes
// untouched — and recover again in that shape.
func TestMixedVersionTier(t *testing.T) {
	dir := t.TempDir()
	// Two v2 segments from "the previous release", no manifest (adoption
	// rule 4).
	writeV2Segment(t, dir, "seg-00000001.kfs", []FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	writeV2Segment(t, dir, "seg-00000002.kfs", []FlushRecord{fr(3, 3, "old"), fr(4, 4, "both", "zz")})
	legacy := []string{filepath.Join(dir, "seg-00000001.kfs"), filepath.Join(dir, "seg-00000002.kfs")}
	before := []string{fileIdentity(t, legacy[0]), fileIdentity(t, legacy[1])}

	cfg := Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover mixed dir: %v", err)
	}
	defer tier.Close()
	if got := tier.Stats(); got.Segments != 2 || got.Blocks != 2 {
		t.Fatalf("recovered %d segments over %d blocks, want 2 over 2", got.Segments, got.Blocks)
	}

	// A new flush writes a block and a v3 directory alongside.
	if err := tier.Flush([]FlushRecord{fr(5, 5, "new", "both")}); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Version != 2 || infos[1].Version != 2 || infos[2].Version != 3 {
		t.Fatalf("segment versions: %+v", infos)
	}
	if got := infos[2].Blocks; len(got) != 1 || got[0] != "blk-00000003.kfs" {
		t.Fatalf("flushed directory names blocks %v", got)
	}
	if got := infos[0].Blocks; len(got) != 1 || got[0] != "seg-00000001.kfs" || infos[0].BlockBytes != 0 {
		t.Fatalf("legacy segment names blocks %v (%d bytes besides itself), want itself", got, infos[0].BlockBytes)
	}

	// Searches span both formats, the legacy unsorted key section
	// included.
	searchBoth := func(on *Tier[string], label string) {
		t.Helper()
		items, err := on.Search([]string{"both"}, query.OpSingle, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := []types.ID{5, 4, 2}
		if len(items) != len(wantIDs) {
			t.Fatalf("%s: search found %d of 3 records", label, len(items))
		}
		for i, it := range items {
			if it.MB.ID != wantIDs[i] {
				t.Fatalf("%s: item %d ID = %d, want %d", label, i, it.MB.ID, wantIDs[i])
			}
		}
		for key, want := range map[string]int{"old": 2, "zz": 1, "new": 1, "absent": 0} {
			if items, err := on.Search([]string{key}, query.OpSingle, 10); err != nil || len(items) != want {
				t.Fatalf("%s: key %q: %d items, err=%v, want %d", label, key, len(items), err, want)
			}
		}
	}
	searchBoth(tier, "mixed")
	if st := tier.Stats(); st.DirProbes == 0 || st.BloomProbes == 0 {
		t.Fatalf("no directory (%d) or Bloom (%d) probes recorded", st.DirProbes, st.BloomProbes)
	}

	// A merge whose inputs are v2 files writes one v3 directory naming
	// them as blocks; nothing rewrites or removes them.
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	infos, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Version != 3 || infos[0].BloomBytes == 0 || infos[0].Records != 5 {
		t.Fatalf("after compaction: %+v, want one v3 directory of 5 records", infos)
	}
	wantBlocks := []string{"seg-00000001.kfs", "seg-00000002.kfs", "blk-00000003.kfs"}
	if fmt.Sprint(infos[0].Blocks) != fmt.Sprint(wantBlocks) {
		t.Fatalf("merged directory names %v, want %v", infos[0].Blocks, wantBlocks)
	}
	for i, p := range legacy {
		if got := fileIdentity(t, p); got != before[i] {
			t.Fatalf("legacy file %s changed under the merge: %s, was %s", filepath.Base(p), got, before[i])
		}
	}
	// The legacy files are blocks now: the manifest neither lists them
	// live nor retires them (open deletes what is retired).
	if m, err := ReadManifest(dir); err != nil || len(m.Live) != 1 || fmt.Sprint(m.Retired) != "[seg-00000003.kfs]" {
		t.Fatalf("manifest after merge: %+v, err=%v; want the merged directory live and only the v3 input retired", m, err)
	}
	searchBoth(tier, "merged")
	if segs, recs, err := Verify(dir); err != nil || segs != 1 || recs != 5 {
		t.Fatalf("verify: segs=%d recs=%d err=%v", segs, recs, err)
	}

	// The merged directory recovers, twice: the unlisted legacy files are
	// its blocks, neither adopted as segments nor swept as orphans.
	tier.Close()
	for round := 1; round <= 2; round++ {
		re, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := re.Stats(); got.Segments != 1 || got.Blocks != 3 {
			t.Fatalf("reopen %d: %d segments over %d blocks, want 1 over 3", round, got.Segments, got.Blocks)
		}
		searchBoth(re, fmt.Sprintf("reopen %d", round))
		re.Close()
	}
	for i, p := range legacy {
		if got := fileIdentity(t, p); got != before[i] {
			t.Fatalf("legacy file %s changed across reopen: %s, was %s", filepath.Base(p), got, before[i])
		}
	}
}
