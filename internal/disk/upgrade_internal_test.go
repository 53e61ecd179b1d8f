package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Writers of the retired formats, which production no longer has: byte
// for byte what earlier builds left on disk, for the refusal tests — and
// the v5 record file writer, for the tests that read v5 in place.

// The v4 block and log file layouts. A v4 block is KFBK | u16 4 | u16
// offset width (4 or 8) | u32 count | records | count offsets | u64
// offsetsPos | "KFBE"; a v4 log file is KFWL | u16 4 | frames, each u32
// length | u32 CRC32C | payload — one record, a reference list (a v5
// reference page's payload), or, last in a sealed file, the frame index
// 0xFF | count × u32 record frame offset | u32 count | "KFWX".
const (
	blkEndMagicV4     = "KFBE"
	frameIndexMagicV4 = "KFWX"
)

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
	writeFile(t, path, append(buf, blkEndMagicV4...))
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
		table = append(table, &block{path: names[i], pages: PageIndex{Records: uint32(len(recs))}})
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
	for _, fr := range recs {
		if version == 2 {
			buf = appendFrameV4(buf, appendRecord(nil, fr, nil))
		} else {
			buf = appendFrameV4(buf, appendFixedRecord(nil, fr))
		}
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

// writeBlock writes recs, in rank order, as the block at path.
func writeBlock(t *testing.T, path string, recs []FlushRecord) {
	t.Helper()
	img, _ := encodeBlock(nil, "", recs)
	writeFile(t, path, img)
}

// outOfWindow fabricates directories each holding one retired format
// beside current files: File names it, and Commit the commit whose
// upgrade converts it. A Data row is a kflushd data directory, one tier
// per attribute; the others are one tier.
var outOfWindow = []struct {
	Name, File, Commit string
	Data               bool
	Build              func(t *testing.T, dir string)
}{
	{"seg-v2", "seg-00000002.kfs", olderUpgrade, false, func(t *testing.T, dir string) {
		writeV2Segment(t, dir, "seg-00000002.kfs", []FlushRecord{fr(3, 3, "old"), fr(4, 4, "both", "zz", "zz")})
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"blk-v3", "blk-00000002.kfs", olderUpgrade, false, func(t *testing.T, dir string) {
		blk2 := rankOrder([]FlushRecord{fr(3, 3, "old"), fr(4, 4, "both")})
		writeV3Block(t, filepath.Join(dir, "blk-00000002.kfs"), blk2)
		writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000002.kfs"), []string{"blk-00000002.kfs"}, blk2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"manifest=v1", manifestName, olderUpgrade, false, func(t *testing.T, dir string) {
		currentTier(t, dir, func(_ []byte, m Manifest) []byte { return encodeManifestV1(m) })
	}},
	{"manifest=v2", manifestName, olderUpgrade, false, func(t *testing.T, dir string) {
		currentTier(t, dir, func(_ []byte, m Manifest) []byte { return encodeManifestV2(m) })
	}},
	{"wal-dir", "wal", olderUpgrade, false, func(t *testing.T, dir string) {
		writeFile(t, filepath.Join(dir, "wal", "snapshot.kfw"), legacyLogFile(1, []FlushRecord{fr(101, 101, "log")}))
		writeFile(t, filepath.Join(dir, "wal", LogName(1)), legacyLogFile(1, []FlushRecord{fr(102, 102, "log")}))
		writeFile(t, filepath.Join(dir, "wal", LogName(2)), legacyLogFile(2, []FlushRecord{fr(103, 103, "log")}))
		currentTier(t, dir, encodeManifest)
	}},
	{"seg-v3", "seg-00000002.kfs", roundUpgrade, false, func(t *testing.T, dir string) {
		blk2 := rankOrder([]FlushRecord{fr(3, 3, "old"), fr(4, 4, "both")})
		writeBlock(t, filepath.Join(dir, "blk-00000002.kfs"), blk2)
		writeDirectory(t, segVersionV3, filepath.Join(dir, "seg-00000002.kfs"), []string{"blk-00000002.kfs"}, blk2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"wal-v3", LogName(2), roundUpgrade, false, func(t *testing.T, dir string) {
		wal2 := writeOldLogFile(t, dir, 2, logVersionV3, fr(3, 3, "old", "new"), fr(4, 4, "zz"))
		writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000002.kfs"), []string{LogName(2)}, wal2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"blk-v4", "blk-00000002.kfs", recordUpgrade, false, func(t *testing.T, dir string) {
		blk2 := rankOrder([]FlushRecord{fr(3, 3, "old"), fr(4, 4, "both")})
		recs := make([][]byte, len(blk2))
		for i, r := range blk2 {
			recs[i] = appendRecord(nil, r, nil)
		}
		writeFile(t, filepath.Join(dir, "blk-00000002.kfs"), encodeBlockV4(recs))
		writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000002.kfs"), []string{"blk-00000002.kfs"}, blk2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"wal-v4", LogName(2), recordUpgrade, false, func(t *testing.T, dir string) {
		wal2 := writeOldLogFile(t, dir, 2, recordVersionV4, fr(3, 3, "old", "new"), fr(4, 4, "zz"))
		writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000002.kfs"), []string{LogName(2)}, wal2)
		currentTier(t, dir, encodeManifest, "seg-00000002.kfs")
	}},
	{"spatial-wal", "spatial", roundUpgrade, true, func(t *testing.T, dir string) {
		currentTier(t, filepath.Join(dir, "keyword"), encodeManifest)
		writeLogFile(t, filepath.Join(dir, "keyword"), 3, fr(5, 5, "new"))
		if err := os.Mkdir(filepath.Join(dir, "spatial"), 0o755); err != nil {
			t.Fatal(err)
		}
		writeLogFile(t, filepath.Join(dir, "spatial"), 1, fr(6, 6, "old"))
	}},
}

// currentTier writes a flush in current formats — blk-1 under seg-1 —
// and a manifest, encoded by encode, listing seg-1 and the directories
// more live.
func currentTier(t *testing.T, dir string, encode func([]byte, Manifest) []byte, more ...string) {
	t.Helper()
	blk1 := rankOrder([]FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	writeBlock(t, filepath.Join(dir, "blk-00000001.kfs"), blk1)
	writeDirectory(t, segVersion, filepath.Join(dir, "seg-00000001.kfs"), []string{"blk-00000001.kfs"}, blk1)
	m := Manifest{NextSeq: 3, MaxRecordID: 4, Live: []ManifestEntry{{Name: "seg-00000001.kfs"}}}
	for _, name := range more {
		m.Live = append(m.Live, ManifestEntry{Name: name})
	}
	writeFile(t, filepath.Join(dir, manifestName), encode(nil, m))
}

// writeOldLogFile writes sealed log file seq as version 4 or 3 left it:
// the v4 layout without a reference frame, under a header of version.
func writeOldLogFile(t *testing.T, dir string, seq uint32, version uint16, recs ...FlushRecord) []FlushRecord {
	t.Helper()
	out := writeLogFile(t, dir, seq, recs...)
	encoded := make([][]byte, len(out))
	for i, fr := range out {
		encoded[i] = appendRecord(nil, fr, nil)
	}
	img := encodeLogV4(encoded)
	binary.LittleEndian.PutUint16(img[4:], version)
	writeFile(t, filepath.Join(dir, LogName(seq)), img)
	return out
}

// appendFrameV4 appends one v4 log frame — u32 length | u32 CRC32C |
// payload, a v5 page header's layout — holding payload.
func appendFrameV4(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), payload...)
	sealPage(buf[start:])
	return buf
}

// encodeBlockV4 is the v4 block holding the encoded records recs, in
// order, with u32 offsets.
func encodeBlockV4(recs [][]byte) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint16([]byte(blkMagic), recordVersionV4)
	buf = le.AppendUint16(buf, 4)
	buf = le.AppendUint32(buf, uint32(len(recs)))
	offsets := make([]uint32, len(recs))
	for i, rec := range recs {
		offsets[i] = uint32(len(buf))
		buf = append(buf, rec...)
	}
	end := uint64(len(buf))
	for _, off := range offsets {
		buf = le.AppendUint32(buf, off)
	}
	buf = le.AppendUint64(buf, end)
	return append(buf, blkEndMagicV4...)
}

// encodeLogV4 is the sealed v4 log file framing the encoded records
// recs in order, its frame index last.
func encodeLogV4(recs [][]byte) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint16([]byte(LogMagic), recordVersionV4)
	index := []byte{indexMarker}
	for _, rec := range recs {
		index = le.AppendUint32(index, uint32(len(buf)))
		buf = appendFrameV4(buf, rec)
	}
	index = le.AppendUint32(index, uint32(len(recs)))
	return appendFrameV4(buf, append(index, frameIndexMagicV4...))
}

// appendPagesV5 appends frs to buf as record pages the way a version 5
// writer did — every record absolute, packed greedily — indexing each
// page in x at its offset in buf.
func appendPagesV5(buf []byte, frs []FlushRecord, x *PageIndex) []byte {
	for i := 0; i < len(frs); {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		held := uint32(0)
		for ; i < len(frs); i++ {
			at := len(buf)
			buf = appendRecord(buf, frs[i], nil)
			if held > 0 && len(buf)-start-PageHeaderSize > PageSize {
				buf = buf[:at]
				break
			}
			held++
		}
		sealPage(buf[start:])
		x.Add(uint64(start), held)
	}
	return buf
}

// rewriteAsV5 rewrites every block and log file under dir, at any depth,
// as the version 5 file a build before version 6 would have written
// holding the same records at the same ordinals: the records of each
// page re-paged by the v5 writer, each reference page where it stood,
// the index where there was one. It returns the paths it rewrote.
func rewriteAsV5(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if _, isLog := ParseLogName(name); !isLog && !strings.HasPrefix(name, "blk-") {
			return nil
		}
		img, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := binary.LittleEndian.AppendUint16(append([]byte(nil), img[:4]...), recordVersionV5)
		var x PageIndex
		for pos := HeaderSize; pos < len(img); {
			payload, ok := CheckPage(img[pos:])
			if !ok {
				return fmt.Errorf("%s: bad page at %d", name, pos)
			}
			page := img[pos : pos+PageHeaderSize+len(payload)]
			pos += len(page)
			switch {
			case IsPageIndex(payload):
				out = AppendPageIndex(out, &x)
			case IsReferences(payload):
				x.Add(uint64(len(out)), 0)
				out = append(out, page...)
			default:
				recs, err := DecodePage(nil, payload)
				if err != nil {
					return fmt.Errorf("%s: page at %d: %w", name, pos, err)
				}
				out = appendPagesV5(out, recs, &x)
			}
		}
		paths = append(paths, path)
		return os.WriteFile(path, out, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// Fabricators and helpers for the upgrade battery, which runs outside
// the package so that it can open a durable store too.
var (
	OutOfWindow = outOfWindow
	DirFiles    = dirFiles
	RewriteAsV5 = rewriteAsV5
)
