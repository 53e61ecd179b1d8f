package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// Writers of the retired formats, which production no longer has: byte
// for byte what earlier builds left on disk, for the upgrade and refusal
// tests.

// appendFixedRecord is the fixed-width record writer of v1 log files, v3
// blocks and v2 segment files; fixedLen is its length.
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

// writeV2Segment writes a v2 segment file — records, offsets, key
// section, Bloom and footer in one file — with its key section in
// descending order (v2 wrote map order), and a record naming a key twice
// posted twice under it.
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
	writeFile(t, filepath.Join(dir, name), buf)
}

// writeV3Block writes a v3 block: fixed-width records, u64 offsets.
func writeV3Block(t *testing.T, path string, recs []FlushRecord) {
	t.Helper()
	le := binary.LittleEndian
	buf := append([]byte(blkMagic), 3, 0, 0, 0)
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
	writeFile(t, path, append(buf, blkEndMagic...))
}

// encodeDirectoryV3 is s's file image in directory format v3: the v4
// image with its key section in the v3 layout.
func encodeDirectoryV3(s *segment) []byte {
	le := binary.LittleEndian
	v4 := s.encode(nil)
	foot := v4[len(v4)-segFooterSize:]
	keysPos, bloomPos := le.Uint64(foot[0:]), le.Uint64(foot[8:])
	img := append([]byte(nil), v4[:keysPos]...)
	le.PutUint16(img[4:], segVersionV3)
	img = le.AppendUint32(img, uint32(len(s.keys)))
	for i, key := range s.keys {
		img = le.AppendUint16(img, uint16(len(key)))
		img = append(img, key...)
		posts := s.posts[s.start[i]:s.start[i+1]]
		img = le.AppendUint32(img, uint32(len(posts)))
		for _, p := range posts {
			img = le.AppendUint32(img, p)
		}
	}
	newBloomPos := uint64(len(img))
	img = append(img, v4[bloomPos:]...)
	le.PutUint64(img[len(img)-segFooterSize+8:], newBloomPos)
	return img
}

// writeDirectory writes a directory of the given version (v3 or the
// current one) at path over the block files names, holding blocks[i] in
// ordinal order, posting every record under each of its keywords in rank
// order.
func writeDirectory(t *testing.T, version uint16, path string, names []string, blocks ...[]FlushRecord) {
	t.Helper()
	type posted struct {
		ord uint32
		fr  FlushRecord
	}
	var table []*block
	var byRank []posted
	for i, recs := range blocks {
		table = append(table, &block{path: names[i], offsets: make([]uint64, len(recs))})
		for _, r := range recs {
			byRank = append(byRank, posted{uint32(len(byRank)), r})
		}
	}
	s := newSegment(path, table)
	s.count = uint32(len(byRank))
	s.maxScore = math.Inf(-1)
	sort.Slice(byRank, func(i, j int) bool {
		a, b := byRank[i].fr, byRank[j].fr
		return a.Score > b.Score || a.Score == b.Score && a.MB.ID > b.MB.ID
	})
	lists := make(map[string][]uint32)
	for _, p := range byRank {
		s.maxScore = math.Max(s.maxScore, p.fr.Score)
		for _, kw := range p.fr.MB.Keywords {
			if l := lists[kw]; len(l) == 0 || l[len(l)-1] != p.ord {
				lists[kw] = append(l, p.ord)
			}
		}
	}
	s.setKeys(lists)
	img := s.encode(nil)
	if version == segVersionV3 {
		img = encodeDirectoryV3(s)
	}
	writeFile(t, s.path, img)
}

// encodeManifestV1 renders m as version 1: no MaxRecordID word and no
// drained list (m must have none).
func encodeManifestV1(m Manifest) []byte {
	b := encodeManifestV2(m)
	const maxIDPos = 4 + 2 + 2 + 8
	b = append(b[:maxIDPos:maxIDPos], b[maxIDPos+8:len(b)-8]...)
	binary.LittleEndian.PutUint16(b[4:], 1)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return append(b, manifestEndMagic...)
}

// encodeManifestV2 renders m as version 2: no drained list (m must have
// none).
func encodeManifestV2(m Manifest) []byte {
	b := encodeManifest(nil, m)
	b = b[: len(b)-8-4 : len(b)-8-4]
	binary.LittleEndian.PutUint16(b[4:], 2)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return append(b, manifestEndMagic...)
}

// legacyLogFile is a log file of version 1 (fixed-width frames) or 2.
func legacyLogFile(version uint16, recs []FlushRecord) []byte {
	buf := binary.LittleEndian.AppendUint16([]byte(LogMagic), version)
	if version == 2 {
		return AppendFrames(buf, recs)
	}
	for _, fr := range recs {
		start := len(buf)
		buf = appendFixedRecord(append(buf, make([]byte, FrameHeaderSize)...), fr)
		sealFrame(buf[start:])
	}
	return buf
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV4Block writes recs, in rank order, as the block at path.
func writeV4Block(t *testing.T, path string, recs []FlushRecord) {
	t.Helper()
	img, _ := encodeBlock(nil, "", recs)
	writeFile(t, path, img)
}

// buildWindowDir fills dir with what a store of the builds in the
// support window could leave, every format Upgrade converts at once,
// under a current manifest or none:
//
//	blk-1  v4 block, named by lvl-4 only (a merge retired seg-1)
//	blk-2  v4 block under seg-2, a v4 directory: current
//	blk-3  v4 block, named by lvl-4
//	lvl-4  v3 directory at L1 over blk-1 and blk-3
//	wal-5  sealed v3 log file under seg-5, a v3 directory (a durable flush)
//	wal-6  sealed v3 log file no directory names
//
// It returns the records the tier holds and those the log holds.
func buildWindowDir(t *testing.T, dir string, manifest bool) (tier, log []FlushRecord) {
	t.Helper()
	stamped := func(id uint64, score float64, ts int64, kws ...string) FlushRecord {
		r := fr(id, score, kws...)
		r.MB.Timestamp = types.Timestamp(ts)
		return r
	}
	blk1 := rankOrder([]FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	blk2 := rankOrder([]FlushRecord{fr(7, 7, "new", "both"), stamped(8, 6.5, 99, "new")})
	blk3 := rankOrder([]FlushRecord{fr(5, 5, "mid", "both"), stamped(60, 4.5, 50, "mid")})
	at := func(name string) string { return filepath.Join(dir, name) }
	writeV4Block(t, at("blk-00000001.kfs"), blk1)
	writeV4Block(t, at("blk-00000002.kfs"), blk2)
	writeDirectory(t, segVersion, at("seg-00000002.kfs"), []string{"blk-00000002.kfs"}, blk2)
	writeV4Block(t, at("blk-00000003.kfs"), blk3)
	writeDirectory(t, segVersionV3, at("lvl-00000004.kfs"), []string{"blk-00000001.kfs", "blk-00000003.kfs"}, blk1, blk3)
	wal5 := writeV3LogFile(t, dir, 5, fr(9, 9, "old", "new"), stamped(10, 0.5, 10, "zz"))
	writeDirectory(t, segVersionV3, at("seg-00000005.kfs"), []string{LogName(5)}, wal5)
	wal6 := writeV3LogFile(t, dir, 6, fr(107, 107, "log"), fr(108, 108, "new", "log"))
	if manifest {
		m := Manifest{
			NextSeq:     7,
			MaxRecordID: 60,
			Live: []ManifestEntry{{Name: "seg-00000002.kfs"}, {Name: "seg-00000005.kfs"},
				{Name: "lvl-00000004.kfs", Level: 1}},
			Retired: []string{"seg-00000001.kfs"},
		}
		writeFile(t, at(manifestName), encodeManifest(nil, m))
	}
	tier = append(append(append(append([]FlushRecord(nil), blk1...), blk2...), blk3...), wal5...)
	return tier, append(wal5, wal6...)
}

// outOfWindow fabricates directories each holding one format older than
// the support window beside current files: File names it.
var outOfWindow = []struct {
	Name, File string
	Build      func(t *testing.T, dir string)
}{
	{"seg-v2", "seg-00000002.kfs", func(t *testing.T, dir string) {
		writeV2Segment(t, dir, "seg-00000002.kfs", []FlushRecord{fr(3, 3, "old"), fr(4, 4, "both", "zz", "zz")})
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"blk-v3", "blk-00000002.kfs", func(t *testing.T, dir string) {
		blk2 := rankOrder([]FlushRecord{fr(3, 3, "old"), fr(4, 4, "both")})
		writeV3Block(t, filepath.Join(dir, "blk-00000002.kfs"), blk2)
		writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000002.kfs"), []string{"blk-00000002.kfs"}, blk2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"manifest=v1", manifestName, func(t *testing.T, dir string) {
		currentTier(t, dir, func(_ []byte, m Manifest) []byte { return encodeManifestV1(m) })
	}},
	{"manifest=v2", manifestName, func(t *testing.T, dir string) {
		currentTier(t, dir, func(_ []byte, m Manifest) []byte { return encodeManifestV2(m) })
	}},
	{"wal-dir", "wal", func(t *testing.T, dir string) {
		writeFile(t, filepath.Join(dir, "wal", "snapshot.kfw"), legacyLogFile(1, []FlushRecord{fr(101, 101, "log")}))
		writeFile(t, filepath.Join(dir, "wal", LogName(1)), legacyLogFile(1, []FlushRecord{fr(102, 102, "log")}))
		writeFile(t, filepath.Join(dir, "wal", LogName(2)), legacyLogFile(2, []FlushRecord{fr(103, 103, "log")}))
		currentTier(t, dir, encodeManifest)
	}},
}

// currentTier writes a flush in current formats — blk-1 under seg-1 —
// and a manifest, encoded by encode, listing seg-1 and the directories
// more live.
func currentTier(t *testing.T, dir string, encode func([]byte, Manifest) []byte, more ...string) {
	t.Helper()
	blk1 := rankOrder([]FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	writeV4Block(t, filepath.Join(dir, "blk-00000001.kfs"), blk1)
	writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000001.kfs"), []string{"blk-00000001.kfs"}, blk1)
	m := Manifest{NextSeq: 3, MaxRecordID: 4, Live: []ManifestEntry{{Name: "seg-00000001.kfs"}}}
	for _, name := range more {
		m.Live = append(m.Live, ManifestEntry{Name: name})
	}
	writeFile(t, filepath.Join(dir, manifestName), encode(nil, m))
}

// writeV3LogFile writes sealed log file seq as version 3 left it: the
// current layout without a reference frame, under a version-3 header.
func writeV3LogFile(t *testing.T, dir string, seq uint32, recs ...FlushRecord) []FlushRecord {
	t.Helper()
	out := writeLogFile(t, dir, seq, recs...)
	path := filepath.Join(dir, LogName(seq))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(img[4:], logVersionV3)
	writeFile(t, path, img)
	return out
}

// TestUpgradeLogFile: a directory naming a version-3 log file is refused;
// the upgrade rewrites the file's header alone — frames, frame index and
// every ordinal the directory posts stay byte for byte — after which the
// directory answers as before, and a second upgrade changes nothing.
func TestUpgradeLogFile(t *testing.T) {
	dir := t.TempDir()
	recs := writeV3LogFile(t, dir, 1, fr(1, 1, "k"), fr(2, 2, "k", "x"), fr(3, 3, "x"))
	v3, err := os.ReadFile(filepath.Join(dir, LogName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// The directory a parent build flushed over it: unchanged by the
	// upgrade, whose version it does not carry.
	binary.LittleEndian.PutUint16(v3[4:], LogVersion)
	writeFile(t, filepath.Join(dir, LogName(1)), v3)
	tier := loggedTier(t, dir, 0)
	if err := tier.Flush([]FlushRecord{recs[0], recs[2]}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(v3[4:], logVersionV3)
	writeFile(t, filepath.Join(dir, LogName(1)), v3)
	if _, err := Open(Config[string]{Dir: dir, KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s }, Logged: true}); !errors.Is(err, ErrNeedsUpgrade) {
		t.Fatalf("open over a version-3 log file = %v, want ErrNeedsUpgrade", err)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(filepath.Join(dir, LogName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(v4[4:]) != LogVersion || string(v4[:4]) != string(v3[:4]) || string(v4[6:]) != string(v3[6:]) {
		t.Fatal("the upgrade changed more than the log file's version")
	}
	done := DirFiles(t, dir, "*")
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	if again := DirFiles(t, dir, "*"); fmt.Sprint(again) != fmt.Sprint(done) {
		t.Fatalf("a second upgrade changed the directory:\n%v\nwas\n%v", again, done)
	}
	reopened := loggedTier(t, dir, 0)
	if got := answerIDs(t, reopened, "k", 5); got != "[1]" {
		t.Fatalf("answers for k %s, want [1]", got)
	}
	if got := answerIDs(t, reopened, "x", 5); got != "[3]" {
		t.Fatalf("answers for x %s, want [3]", got)
	}
}

// TestMixedVersionTier: what a store of the support window's builds
// could leave without a manifest — three flushes, each a v4 block under
// a v3 directory — is refused as it stands; once upgraded it recovers
// beside a new flush, answers searches from every file, merges into one
// directory naming the blocks with their bytes untouched, recovers again
// in that shape, and reads its record-ID mark back from the blocks when
// the manifest is gone.
func TestMixedVersionTier(t *testing.T) {
	dir := t.TempDir()
	// The third block holds the highest ID and a record whose score is
	// not its timestamp.
	offTime := fr(60, 4.5, "mid")
	offTime.MB.Timestamp = 50
	for i, recs := range [][]FlushRecord{
		{fr(1, 1, "old"), fr(2, 2, "both")},
		{fr(3, 3, "old"), fr(4, 4, "both", "zz")},
		{fr(5, 5, "mid", "both"), offTime},
	} {
		blk := fmt.Sprintf("blk-%08d.kfs", i+1)
		recs = rankOrder(recs)
		writeV4Block(t, filepath.Join(dir, blk), recs)
		writeDirectory(t, segVersionV3, filepath.Join(dir, fmt.Sprintf("seg-%08d.kfs", i+1)), []string{blk}, recs)
	}

	cfg := Config[string]{
		Dir:         dir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	}
	before := dirFiles(t, dir, "*.kfs")
	if _, err := Open(cfg); !errors.Is(err, ErrNeedsUpgrade) {
		t.Fatalf("open before the upgrade = %v, want ErrNeedsUpgrade", err)
	}
	if after := dirFiles(t, dir, "*.kfs"); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused open changed the directory:\n%v\nwas\n%v", after, before)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}

	tier, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover upgraded dir: %v", err)
	}
	defer tier.Close()
	if got := tier.Stats(); got.Segments != 3 || got.Blocks != 3 {
		t.Fatalf("recovered %d segments over %d blocks, want 3 over 3", got.Segments, got.Blocks)
	}
	if got := tier.MaxRecordID(); got != 60 {
		t.Fatalf("MaxRecordID = %d read back from the blocks, want 60", got)
	}

	// A new flush writes a block and a directory alongside; one of its
	// records stores its score.
	stored := fr(8, 6.5, "new")
	stored.MB.Timestamp = 99
	if err := tier.Flush([]FlushRecord{fr(7, 7, "new", "both"), stored}); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, info := range infos {
		if info.Version != segVersion {
			t.Fatalf("%s is directory version %d, want %d", info.Path, info.Version, segVersion)
		}
		tables = append(tables, info.Path+": "+blockVersions(info))
	}
	if got, want := fmt.Sprint(tables), "[seg-00000001.kfs: blk-00000001.kfs/v4  seg-00000002.kfs: blk-00000002.kfs/v4  "+
		"seg-00000003.kfs: blk-00000003.kfs/v4  seg-00000004.kfs: blk-00000004.kfs/v4 ]"; got != want {
		t.Fatalf("segments and their blocks:\n got %s\nwant %s", got, want)
	}

	// Searches span the upgraded directories and the new one.
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
	searchAll(tier, "upgraded")
	if st := tier.Stats(); st.DirProbes == 0 || st.BloomProbes == 0 {
		t.Fatalf("no directory (%d) or Bloom (%d) probes recorded", st.DirProbes, st.BloomProbes)
	}

	// A merge writes one directory naming every block; nothing rewrites or
	// removes a block.
	blocks := dirFiles(t, dir, "blk-*")
	unchanged := func(when string) {
		t.Helper()
		if got := dirFiles(t, dir, "blk-*"); !reflect.DeepEqual(got, blocks) {
			t.Fatalf("blocks changed %s:\n%v\nwere\n%v", when, got, blocks)
		}
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	infos, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].BloomBytes == 0 || infos[0].Records != 8 {
		t.Fatalf("after compaction: %+v, want one directory of 8 records", infos)
	}
	if got, want := blockVersions(infos[0]), "blk-00000001.kfs/v4 blk-00000002.kfs/v4 blk-00000003.kfs/v4 blk-00000004.kfs/v4 "; got != want {
		t.Fatalf("merged directory names %q, want %q", got, want)
	}
	unchanged("under the merge")
	if m, err := ReadManifest(dir); err != nil || len(m.Live) != 1 ||
		fmt.Sprint(m.Retired) != "[seg-00000001.kfs seg-00000002.kfs seg-00000003.kfs seg-00000004.kfs]" {
		t.Fatalf("manifest after merge: %+v, err=%v; want the merged directory live and every input retired", m, err)
	}
	searchAll(tier, "merged")
	if segs, recs, err := Verify(dir); err != nil || segs != 1 || recs != 8 {
		t.Fatalf("verify: segs=%d recs=%d err=%v", segs, recs, err)
	}

	// The merged directory recovers, twice.
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
	// prefix of every block; answers stay the same.
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

// Fabricators and helpers for the upgrade battery, which runs outside
// the package so that it can open a durable store too.
var (
	BuildWindowDir = buildWindowDir
	OutOfWindow    = outOfWindow
	DirFiles       = dirFiles
)
