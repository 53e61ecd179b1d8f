package disk

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// testTier opens the zero-value configuration: the default fanout, with
// Flush running a compaction pass after each install, as the engine
// does after each flush cycle.
func testTier(t *testing.T) *Tier[string] {
	t.Helper()
	return fastTier(t, Config[string]{})
}

func fr(id uint64, score float64, kws ...string) FlushRecord {
	return FlushRecord{
		MB: &types.Microblog{
			ID:        types.ID(id),
			Timestamp: types.Timestamp(score),
			UserID:    id * 7,
			Followers: uint32(id),
			Lat:       40.5,
			Lon:       -74.2,
			HasGeo:    true,
			Keywords:  kws,
			Text:      "some text body",
		},
		Score: score,
	}
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

func TestFlushAndSingleSearch(t *testing.T) {
	tier := testTier(t)
	var recs []FlushRecord
	for i := 1; i <= 30; i++ {
		recs = append(recs, fr(uint64(i), float64(i), "a"))
	}
	if err := tier.Flush(recs); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]string{"a"}, query.OpSingle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("got %d items, want 5", len(items))
	}
	for i, it := range items {
		if want := float64(30 - i); it.Score != want {
			t.Errorf("item %d score = %v, want %v", i, it.Score, want)
		}
	}
}

func TestSearchAcrossSegments(t *testing.T) {
	tier := fastTier(t, Config[string]{MaxSegments: -1})
	// Two segments; newer one holds higher scores.
	if err := tier.Flush([]FlushRecord{fr(1, 1, "x"), fr(2, 2, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush([]FlushRecord{fr(3, 3, "x"), fr(4, 4, "x")}); err != nil {
		t.Fatal(err)
	}
	if got := tier.Stats().Segments; got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	items, err := tier.Search([]string{"x"}, query.OpSingle, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 3, 2}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for i, it := range items {
		if it.Score != want[i] {
			t.Errorf("item %d score = %v, want %v", i, it.Score, want[i])
		}
	}
}

func TestSearchOrAnd(t *testing.T) {
	tier := testTier(t)
	err := tier.Flush([]FlushRecord{
		fr(1, 1, "a"), fr(2, 2, "b"), fr(3, 3, "a", "b"), fr(4, 4, "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	or, err := tier.Search([]string{"a", "b"}, query.OpOr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(or) != 3 {
		t.Fatalf("OR: got %d items, want 3", len(or))
	}
	and, err := tier.Search([]string{"a", "b"}, query.OpAnd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(and) != 1 || and[0].MB.ID != 3 {
		t.Fatalf("AND: got %v", and)
	}
}

func TestSearchMissingKey(t *testing.T) {
	tier := testTier(t)
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]string{"nope"}, query.OpSingle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("got %d items for missing key", len(items))
	}
}

func TestRecordRoundTrip(t *testing.T) {
	tier := testTier(t)
	in := fr(42, 99.5, "kw1", "kw2")
	in.MB.Text = "full text with ünïcode ✓"
	if err := tier.Flush([]FlushRecord{in}); err != nil {
		t.Fatal(err)
	}
	items, err := tier.Search([]string{"kw1"}, query.OpSingle, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatal("missing record")
	}
	got := items[0].MB
	if got.ID != in.MB.ID || got.Timestamp != in.MB.Timestamp ||
		got.UserID != in.MB.UserID || got.Followers != in.MB.Followers ||
		got.Lat != in.MB.Lat || got.Lon != in.MB.Lon || !got.HasGeo ||
		got.Text != in.MB.Text || len(got.Keywords) != 2 ||
		got.Keywords[0] != "kw1" || got.Keywords[1] != "kw2" {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in.MB)
	}
	if items[0].Score != in.Score {
		t.Fatalf("score = %v, want %v", items[0].Score, in.Score)
	}
}

func TestRecoverAcrossReopen(t *testing.T) {
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
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a"), fr(2, 2, "a")}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	items, err := re.Search([]string{"a"}, query.OpSingle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("recovered %d items, want 2", len(items))
	}
	// New flushes after recovery must not collide with old segments.
	if err := re.Flush([]FlushRecord{fr(3, 3, "a")}); err != nil {
		t.Fatal(err)
	}
	items, err = re.Search([]string{"a"}, query.OpSingle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("after new flush: %d items, want 3", len(items))
	}
	if got := re.Stats().Segments; got != 2 {
		t.Fatalf("segments = %d, want 2 (one recovered, one new)", got)
	}
}

func TestCorruptSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000001.kfs")
	if err := os.WriteFile(path, []byte("garbage not a segment at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config[string]{
		Dir:    dir,
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	})
	if err == nil {
		t.Fatal("expected error opening dir with corrupt segment")
	}
}

// TestDamagedFilesRejectedNotPanicked feeds the block and directory
// readers every truncation and a bit flip at every offset of real files:
// damage must surface as an error (or, for a flip in a record body,
// decode to something), never as a panic or an over-read. The rename
// protocol never leaves a torn file under a final name, but bit rot can.
//
// The block is checked at both offset widths: as written (u32) and as a
// block past 4 GiB would be laid out (u64).
func TestDamagedFilesRejectedNotPanicked(t *testing.T) {
	for _, width := range []int64{4, 8} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) { checkDamagedFiles(t, width) })
	}
}

// TestDamagedMultiBlockDirectory is the directory half of
// TestDamagedFilesRejectedNotPanicked over a key section of several key
// blocks and their fence: every truncation is refused, and a bit flip at
// any offset is refused or decodes, never panics.
func TestDamagedMultiBlockDirectory(t *testing.T) {
	dir := t.TempDir()
	tier := fastTier(t, Config[string]{Dir: dir})
	var recs []FlushRecord
	for i := uint64(1); i <= 500; i++ {
		recs = append(recs, fr(i, float64(i), "common",
			fmt.Sprintf("kw%04d-%08x", i, i*2654435761), fmt.Sprintf("kw%04d", i+1000)))
	}
	if err := tier.Flush(recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-00000001.kfs")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	foot := intact[len(intact)-segFooterSize:]
	keys := intact[le.Uint64(foot):le.Uint64(foot[8:])]
	if n, _ := binary.Uvarint(keys[le.Uint64(keys[len(keys)-8:]):]); n < 3 {
		t.Fatalf("the key section spans %d key blocks, want at least 3", n)
	}
	bs := newBlockSet(nil)
	defer bs.release()
	open := func(img []byte) error {
		s, err := decodeSegment(path, img, bs)
		if err == nil {
			s.release()
		}
		return err
	}
	if err := open(intact); err != nil {
		t.Fatalf("intact directory: %v", err)
	}
	for cut := 0; cut < len(intact); cut++ {
		if err := open(intact[:cut]); err == nil {
			t.Fatalf("directory truncated to %d of %d bytes opened cleanly", cut, len(intact))
		}
	}
	for off := range intact {
		mutated := append([]byte(nil), intact...)
		mutated[off] ^= 1 << (uint(off) % 8)
		_ = open(mutated) // must not panic; a flip in a key's bytes may still decode
	}
}

func checkDamagedFiles(t *testing.T, width int64) {
	dir := t.TempDir()
	tier := fastTier(t, Config[string]{Dir: dir})
	if err := tier.Flush([]FlushRecord{fr(1, 1, "a", "b"), fr(2, 2, "a"), fr(3, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	blkPath, segPath := filepath.Join(dir, "blk-00000001.kfs"), filepath.Join(dir, "seg-00000001.kfs")
	if width == 8 {
		img, err := os.ReadFile(blkPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(blkPath, widenBlock(img), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := openBlock(blkPath)
	if err != nil || b.width != width {
		t.Fatalf("block opens with err %v; want width %d", err, width)
	}
	if rec, err := b.readRecord(0); err != nil || rec.MB.ID != 3 {
		t.Fatalf("best record of the width-%d block: %+v, %v", width, rec, err)
	}
	b.release()
	open := func() error {
		bs := newBlockSet(nil)
		defer bs.release()
		s, err := openSegment(segPath, bs)
		if err != nil {
			return err
		}
		defer s.release()
		// Decode every record as well: a flip in a record body reaches the
		// codec, which may refuse it but must not panic.
		for _, b := range s.blocks {
			for ord := uint32(0); ord < b.count(); ord++ {
				_, _ = b.readRecord(ord)
			}
		}
		return nil
	}
	if err := open(); err != nil {
		t.Fatalf("intact files: %v", err)
	}
	for _, path := range []string{blkPath, segPath} {
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(intact); cut++ {
			if err := os.WriteFile(path, intact[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := open(); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes opened cleanly", filepath.Base(path), cut, len(intact))
			}
		}
		for off := range intact {
			mutated := append([]byte(nil), intact...)
			mutated[off] ^= 1 << (uint(off) % 8)
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			_ = open() // must not panic; most flips are caught, some land in payload
		}
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyFlushIsNoop(t *testing.T) {
	tier := testTier(t)
	if err := tier.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if st := tier.Stats(); st.Segments != 0 {
		t.Fatalf("segments = %d, want 0", st.Segments)
	}
}

// Property: any record encodes and decodes identically.
func TestRecordCodecProperty(t *testing.T) {
	f := func(id uint64, ts int64, user uint64, fol uint32, lat, lon, score float64, geo, tsScore bool, kw1, kw2, text string) bool {
		if len(kw1) > 60000 || len(kw2) > 60000 || len(text) > 1<<20 {
			return true // outside format limits
		}
		if tsScore {
			score = float64(ts)
		}
		in := FlushRecord{
			MB: &types.Microblog{
				ID: types.ID(id), Timestamp: types.Timestamp(ts),
				UserID: user, Followers: fol, Lat: lat, Lon: lon,
				HasGeo: geo, Keywords: []string{kw1, kw2}, Text: text,
			},
			Score: score,
		}
		buf := appendRecord(nil, in)
		out, n, err := decodeRecord(buf)
		if err != nil || n != len(buf) {
			return false
		}
		m := out.MB
		return m.ID == in.MB.ID && m.Timestamp == in.MB.Timestamp &&
			m.UserID == in.MB.UserID && m.Followers == in.MB.Followers &&
			m.Lat == in.MB.Lat && m.Lon == in.MB.Lon && m.HasGeo == in.MB.HasGeo &&
			len(m.Keywords) == 2 && m.Keywords[0] == kw1 && m.Keywords[1] == kw2 &&
			m.Text == text && out.Score == in.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedRecordDetected: every strict prefix of a record is
// refused, and the rank prefix reads back from the front.
func TestTruncatedRecordDetected(t *testing.T) {
	buf := appendRecord(nil, fr(1, 1, "abc", "de"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeRecord(buf[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte record decoded", cut, len(buf))
		}
	}
	if id, score, err := decodeRank(buf); err != nil || id != 1 || score != 1 {
		t.Fatalf("rank prefix = %d, %v, %v", id, score, err)
	}
}

// TestCompactCodecSize pins what the compact codec saves on a typical
// record: the score under Temporal ranking, the width of small integers,
// and a zero location.
func TestCompactCodecSize(t *testing.T) {
	in := fr(1000, 1e6, "kw1", "kw2")
	in.MB.Lat, in.MB.Lon, in.MB.HasGeo = 0, 0, false
	fixed, compact := appendFixedRecord(nil, in), appendRecord(nil, in)
	// flags 1, ID 2, timestamp 3, user 2, followers 2, nkw 1, keywords
	// 2×4, text 1+14.
	if len(compact) != 34 || len(fixed) != fixedLenBase+2*5+14 || fixedLen(in) != int64(len(fixed)) {
		t.Fatalf("compact %d bytes (want 34), fixed %d, fixedLen %d", len(compact), len(fixed), fixedLen(in))
	}
}

// TestRecordCacheChargeIndependentOfFormat: the cache charges a record
// its fixed-width length (fixedLen) plus bookkeeping, however its file
// lays it out — a v4 block, or a sealed log file whose frames put eight
// more bytes in front of it — so a smaller encoding lets no more decoded
// records in under a budget.
func TestRecordCacheChargeIndependentOfFormat(t *testing.T) {
	dir := t.TempDir()
	rec := fr(1, 1, "a", "kw")
	img, _ := encodeBlock(nil, "", []FlushRecord{rec})
	blkPath := filepath.Join(dir, "blk-00000001.kfs")
	if err := os.WriteFile(blkPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	writeLogFile(t, dir, 1, rec)
	want := int64(len(appendFixedRecord(nil, rec))) + cacheEntryOverhead
	for _, path := range []string{blkPath, filepath.Join(dir, LogName(1))} {
		b, err := openBlock(path)
		if err != nil {
			t.Fatal(err)
		}
		tier := &Tier[string]{cache: newRecordCache(1<<20, nil)}
		if _, _, err := tier.readRecordCached(b, 0); err != nil {
			t.Fatal(err)
		}
		b.release()
		if got := tier.cache.resident(); got != want {
			t.Fatalf("%s: a record is charged %d bytes, want its fixed-width length plus bookkeeping, %d", filepath.Base(path), got, want)
		}
	}
}
