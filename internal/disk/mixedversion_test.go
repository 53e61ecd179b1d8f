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

// appendFixedRecord is the CodecFixed writer, which production no longer
// has: byte for byte what every release before PR 25 wrote into blocks,
// segment files and log frames.
func appendFixedRecord(buf []byte, fr FlushRecord) []byte {
	le := binary.LittleEndian
	m := fr.MB
	buf = le.AppendUint64(buf, uint64(m.ID))
	buf = le.AppendUint64(buf, uint64(m.Timestamp))
	buf = le.AppendUint64(buf, m.UserID)
	buf = le.AppendUint32(buf, m.Followers)
	if m.HasGeo {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = le.AppendUint64(buf, math.Float64bits(fr.Score))
	buf = le.AppendUint64(buf, math.Float64bits(m.Lat))
	buf = le.AppendUint64(buf, math.Float64bits(m.Lon))
	buf = le.AppendUint16(buf, uint16(len(m.Keywords)))
	for _, kw := range m.Keywords {
		buf = le.AppendUint16(buf, uint16(len(kw)))
		buf = append(buf, kw...)
	}
	buf = le.AppendUint32(buf, uint32(len(m.Text)))
	return append(buf, m.Text...)
}

// testCodecs pairs every codec with its writer.
var testCodecs = []struct {
	name string
	c    Codec
	enc  func([]byte, FlushRecord) []byte
}{
	{"fixed", CodecFixed, appendFixedRecord},
	{"compact", CodecCompact, appendRecord},
}

// rankOrder returns recs sorted best first, as every writer stores them.
func rankOrder(recs []FlushRecord) []FlushRecord {
	sorted := append([]FlushRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		return sorted[i].MB.ID > sorted[j].MB.ID
	})
	return sorted
}

// writeV2Segment fabricates a genuine legacy (format v2) segment file —
// records, offsets, key section, Bloom and footer in one file — byte for
// byte as a process running a release before PR 22 would have left it,
// including a key section in no particular order (v2 wrote it in map
// order; here, descending, so a reader that assumed sorted keys fails).
func writeV2Segment(t *testing.T, dir, name string, recs []FlushRecord) {
	t.Helper()
	sorted := rankOrder(recs)
	le := binary.LittleEndian
	buf := append([]byte(segMagic), 2, 0, 0, 0)
	buf = le.AppendUint32(buf, uint32(len(sorted)))
	offsets := make([]uint64, len(sorted))
	maxScore := math.Inf(-1)
	postings := make(map[string][]uint32)
	for ord, fr := range sorted {
		offsets[ord] = uint64(len(buf))
		buf = appendFixedRecord(buf, fr)
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

// encodeV3Block is the v3 block writer (PR 22 to PR 24): CodecFixed
// records and a u64 offsets table.
func encodeV3Block(path string, recs []FlushRecord) ([]byte, *block) {
	le := binary.LittleEndian
	buf := append([]byte(blkMagic), blkVersionV3, 0, 0, 0)
	buf = le.AppendUint32(buf, uint32(len(recs)))
	offsets := make([]uint64, len(recs))
	for i, fr := range recs {
		offsets[i] = uint64(len(buf))
		buf = appendFixedRecord(buf, fr)
	}
	end := uint64(len(buf))
	for _, off := range offsets {
		buf = le.AppendUint64(buf, off)
	}
	buf = le.AppendUint64(buf, end)
	buf = append(buf, blkEndMagic...)
	return buf, newBlock(&block{path: path, version: blkVersionV3, width: 8,
		offsets: offsets, end: end, size: int64(len(buf))})
}

// writeV3Flush fabricates what a flush wrote from PR 22 to PR 24: a v3
// block blk-<seq> and the v3 directory seg-<seq> over it (the directory
// format has not changed since).
func writeV3Flush(t *testing.T, dir string, seq int, recs []FlushRecord) {
	t.Helper()
	sorted := rankOrder(recs)
	img, b := encodeV3Block(filepath.Join(dir, fmt.Sprintf("blk-%08d.kfs", seq)), sorted)
	if err := os.WriteFile(b.path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newSegment(filepath.Join(dir, fmt.Sprintf("seg-%08d.kfs", seq)), []*block{b})
	defer s.release()
	s.count = uint32(len(sorted))
	s.maxScore = sorted[0].Score
	posts := make(map[string][]uint32)
	for ord, fr := range sorted {
		for _, kw := range fr.MB.Keywords {
			posts[kw] = append(posts[kw], uint32(ord))
		}
	}
	s.setKeys(posts)
	if err := os.WriteFile(s.path, s.encode(nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// widenBlock rewrites a v4 block image with 8-byte offsets, as the
// writer lays out a block whose record area reaches 4 GiB.
func widenBlock(img []byte) []byte {
	le := binary.LittleEndian
	count := int(le.Uint32(img[8:]))
	end := le.Uint64(img[len(img)-blkFooterSize:])
	out := append([]byte(nil), img[:end]...)
	le.PutUint16(out[6:], 8)
	for i := 0; i < count; i++ {
		out = le.AppendUint64(out, uint64(le.Uint32(img[int(end)+4*i:])))
	}
	out = le.AppendUint64(out, end)
	return append(out, blkEndMagic...)
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

// blockVersions renders a segment's block table as name/version pairs.
func blockVersions(info SegmentInfo) string {
	out := ""
	for _, b := range info.Blocks {
		out += fmt.Sprintf("%s/v%d ", b.Name, b.Version)
	}
	return out
}

// TestMixedVersionTier runs the full compatibility story: a directory
// holding legacy single-file v2 segments and a v3 flush (fixed-width
// block plus directory) must recover beside new v4 flushes, answer
// searches correctly from all three, and merge — the old files ending up
// as blocks of the merged directory, their bytes untouched — recover
// again in that shape, and read its record-ID high-water mark back from
// all three block formats when the manifest is gone.
func TestMixedVersionTier(t *testing.T) {
	dir := t.TempDir()
	// Two v2 segments from before PR 22 and a v3 flush from before PR 25,
	// no manifest (adoption rule 4). The v3 block holds the highest ID and
	// a record whose score is not its timestamp.
	writeV2Segment(t, dir, "seg-00000001.kfs", []FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	writeV2Segment(t, dir, "seg-00000002.kfs", []FlushRecord{fr(3, 3, "old"), fr(4, 4, "both", "zz")})
	offTime := fr(60, 4.5, "mid")
	offTime.MB.Timestamp = 50
	writeV3Flush(t, dir, 3, []FlushRecord{fr(5, 5, "mid", "both"), offTime})
	kept := []string{"seg-00000001.kfs", "seg-00000002.kfs", "blk-00000003.kfs"}
	before := make([]string, len(kept))
	for i, name := range kept {
		before[i] = fileIdentity(t, filepath.Join(dir, name))
	}
	unchanged := func(when string) {
		t.Helper()
		for i, name := range kept {
			if got := fileIdentity(t, filepath.Join(dir, name)); got != before[i] {
				t.Fatalf("old file %s changed %s: %s, was %s", name, when, got, before[i])
			}
		}
	}

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
	if got := tier.Stats(); got.Segments != 3 || got.Blocks != 3 {
		t.Fatalf("recovered %d segments over %d blocks, want 3 over 3", got.Segments, got.Blocks)
	}
	if got := tier.MaxRecordID(); got != 60 {
		t.Fatalf("MaxRecordID = %d read back from v2 and v3 blocks, want 60", got)
	}

	// A new flush writes a v4 block and a v3 directory alongside; one of
	// its records stores its score.
	stored := fr(8, 6.5, "new")
	stored.MB.Timestamp = 99
	if err := tier.Flush([]FlushRecord{fr(7, 7, "new", "both"), stored}); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 || infos[0].Version != 2 || infos[1].Version != 2 || infos[2].Version != 3 || infos[3].Version != 3 {
		t.Fatalf("segment versions: %+v", infos)
	}
	for i, want := range []string{"seg-00000001.kfs/v2 ", "seg-00000002.kfs/v2 ", "blk-00000003.kfs/v3 ", "blk-00000004.kfs/v4 "} {
		if got := blockVersions(infos[i]); got != want {
			t.Fatalf("segment %s names blocks %q, want %q", infos[i].Path, got, want)
		}
	}
	if infos[0].BlockBytes != 0 {
		t.Fatalf("legacy segment counts %d block bytes besides itself", infos[0].BlockBytes)
	}

	// Searches span every format, the legacy unsorted key section
	// included.
	searchAll := func(on *Tier[string], label string) {
		t.Helper()
		for _, c := range []struct {
			keys []string
			op   query.Op
			want []types.ID
		}{
			{[]string{"both"}, query.OpSingle, []types.ID{7, 5, 4, 2}},
			{[]string{"old"}, query.OpSingle, []types.ID{3, 1}},
			{[]string{"mid"}, query.OpSingle, []types.ID{5, 60}},
			{[]string{"new"}, query.OpSingle, []types.ID{7, 8}},
			{[]string{"zz"}, query.OpSingle, []types.ID{4}},
			{[]string{"absent"}, query.OpSingle, nil},
			{[]string{"new", "mid"}, query.OpOr, []types.ID{7, 8, 5, 60}},
			{[]string{"both", "zz"}, query.OpAnd, []types.ID{4}},
			{[]string{"both", "mid"}, query.OpAnd, []types.ID{5}},
		} {
			items, err := on.Search(c.keys, c.op, 10)
			if err != nil {
				t.Fatal(err)
			}
			var got []types.ID
			for _, it := range items {
				got = append(got, it.MB.ID)
				if it.MB.ID == 60 && (it.Score != 4.5 || it.MB.Timestamp != 50) ||
					it.MB.ID == 8 && (it.Score != 6.5 || it.MB.Timestamp != 99) {
					t.Fatalf("%s: record %d read back as score %v, timestamp %d", label, it.MB.ID, it.Score, it.MB.Timestamp)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("%s: %v %v found %v, want %v", label, c.op, c.keys, got, c.want)
			}
		}
	}
	searchAll(tier, "mixed")
	if st := tier.Stats(); st.DirProbes == 0 || st.BloomProbes == 0 {
		t.Fatalf("no directory (%d) or Bloom (%d) probes recorded", st.DirProbes, st.BloomProbes)
	}

	// A merge over all three formats writes one v3 directory naming every
	// block; nothing rewrites or removes the old ones.
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	infos, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Version != 3 || infos[0].BloomBytes == 0 || infos[0].Records != 8 {
		t.Fatalf("after compaction: %+v, want one v3 directory of 8 records", infos)
	}
	if got, want := blockVersions(infos[0]), "seg-00000001.kfs/v2 seg-00000002.kfs/v2 blk-00000003.kfs/v3 blk-00000004.kfs/v4 "; got != want {
		t.Fatalf("merged directory names %q, want %q", got, want)
	}
	unchanged("under the merge")
	// The legacy files are blocks now: the manifest neither lists them
	// live nor retires them (open deletes what is retired).
	if m, err := ReadManifest(dir); err != nil || len(m.Live) != 1 || fmt.Sprint(m.Retired) != "[seg-00000003.kfs seg-00000004.kfs]" {
		t.Fatalf("manifest after merge: %+v, err=%v; want the merged directory live and the v3 directories retired", m, err)
	}
	searchAll(tier, "merged")
	if segs, recs, err := Verify(dir); err != nil || segs != 1 || recs != 8 {
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
		if got := re.Stats(); got.Segments != 1 || got.Blocks != 4 {
			t.Fatalf("reopen %d: %d segments over %d blocks, want 1 over 4", round, got.Segments, got.Blocks)
		}
		searchAll(re, fmt.Sprintf("reopen %d", round))
		re.Close()
	}
	unchanged("across reopen")

	// Without a manifest the high-water mark is read back from the rank
	// prefix of every block, whatever its codec; answers stay the same
	// (the legacy files are adopted as segments again, and search
	// deduplicates them).
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.MaxRecordID(); got != 60 {
		t.Fatalf("MaxRecordID without a manifest = %d, want 60", got)
	}
	searchAll(re, "manifest removed")
	unchanged("across a manifest-less reopen")
}

// TestRecordCacheChargeIndependentOfFormat: the cache charges a record
// by its decoded fields, so reading the same records through a v3 block
// and through a v4 block — whose encodings differ in length — under one
// budget leaves the same bytes resident after the same evictions.
func TestRecordCacheChargeIndependentOfFormat(t *testing.T) {
	dir := t.TempDir()
	var recs []FlushRecord
	for i := uint64(1); i <= 64; i++ {
		recs = append(recs, fr(i, float64(i), "a", fmt.Sprintf("kw%d", i%7)))
	}
	recs = rankOrder(recs)
	v3img, _ := encodeV3Block("", recs)
	v4img, _ := encodeBlock(nil, "", recs)
	var resident [2]int64
	var evictions [2]int64
	for i, img := range [][]byte{v3img, v4img} {
		path := filepath.Join(dir, fmt.Sprintf("blk-%08d.kfs", i+1))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := openBlock(path)
		if err != nil {
			t.Fatal(err)
		}
		defer b.release()
		// The cache shards by block identity: give both blocks the same
		// one, so the two runs differ in the encoding alone.
		b.id = 1
		tier := &Tier[string]{cache: newRecordCache(4096, nil)}
		// Two passes over a skewed order: hits, misses and evictions.
		for pass := 0; pass < 2; pass++ {
			for ord := uint32(0); ord < b.count(); ord += 1 + uint32(pass) {
				if _, _, err := tier.readRecordCached(b, ord); err != nil {
					t.Fatal(err)
				}
			}
		}
		resident[i], evictions[i] = tier.cache.resident(), tier.cache.evictions.Load()
	}
	if len(v4img) >= len(v3img) {
		t.Fatalf("v4 block is %d bytes against %d for v3: the test needs encodings of different lengths", len(v4img), len(v3img))
	}
	if evictions[0] == 0 || resident[0] == 0 {
		t.Fatalf("budget never filled: %d resident, %d evictions", resident[0], evictions[0])
	}
	if resident[0] != resident[1] || evictions[0] != evictions[1] {
		t.Fatalf("v3 block leaves %d bytes resident after %d evictions, v4 %d after %d",
			resident[0], evictions[0], resident[1], evictions[1])
	}
}
