package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"

	"kflushing/internal/failpoint"
	"kflushing/internal/types"
)

// The retired formats (DESIGN.md §7.1), read only here and in package
// wal's upgrade.go. A v3 log file is a v4 one that holds no reference
// frame; a v3 block is a v4 block with fixed-width records,
// u64 offsets and no width; a v3 directory is a v4 directory whose key
// section is u32 nkeys, then per key u16 keyLen | key | u32 n | n × u32
// posting; a v2 segment file is a v3 block and an unsorted directory
// over it in one file, its footer u64 offsetsPos | u64 keysPos | u64
// bloomPos | f64 maxScore | "KFND".
const (
	LogVersionV1      = 1
	LogVersionV2      = 2
	LogVersionV3      = 3
	blkVersionV3      = 3
	segVersionV2      = 2
	segVersionV3      = 3
	manifestVersionV1 = 1
	manifestVersionV2 = 2
)

// Upgrade rewrites the tier files under dir in current formats, offline,
// each under its own name, so the manifest's lists stand: a v3 block as a
// v4 block, records in the same ordinal order; a v3 directory as a v4
// one, its key section re-encoded and every other byte kept; a v2 file's
// records as a new v4 block, every directory naming the v2 file
// re-pointed at it, and the v2 file as a directory over it (keys sorted,
// a record posted once per list) — or removed, if only a directory named
// it; a version-1 or -2 manifest as version 3, the record-ID mark read
// back if missing; a v3 log file as v4, only its header's version changed,
// so its frames, its index and every ordinal a directory posts stay
// byte for byte. Each file is staged, fsynced, renamed, its directory
// fsynced, and each step leaves a directory the next Upgrade completes.
// Retired files are left to the next open; a directory in current
// formats is left as it is.
func Upgrade(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	m, mversion, err := readManifestAnyVersion(dir)
	if err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.kfs")) // blk-*, seg-*, lvl-*
	if err != nil {
		return err
	}
	var oldSegs, dirs []string
	seq := m.NextSeq
	for _, p := range paths {
		n, _ := parseSeq(p)
		seq = max(seq, n)
		if slices.Contains(m.Retired, filepath.Base(p)) {
			continue
		}
		switch magic, version := fileHeader(p); {
		case magic == blkMagic && version == blkVersionV3:
			if err := rewriteBlock(p, p); err != nil {
				return err
			}
		case magic == segMagic && version == segVersionV2:
			oldSegs = append(oldSegs, p)
		case magic == segMagic && version == segVersionV3:
			if err := rewriteDirectory(p); err != nil {
				return err
			}
			dirs = append(dirs, p)
		case magic == segMagic:
			dirs = append(dirs, p)
		}
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if err != nil {
		return err
	}
	for _, p := range logs {
		if magic, version := fileHeader(p); magic == LogMagic && version == LogVersionV3 {
			if err := rewriteLogHeader(p); err != nil {
				return err
			}
		}
	}
	legacyManifest := mversion == manifestVersionV1 || mversion == manifestVersionV2
	if len(oldSegs) == 0 && !legacyManifest {
		return nil
	}

	bs := newBlockSet(nil) // a v2 file's name resolves to its new block
	defer bs.release()
	converted := make(map[*block]string, len(oldSegs))
	for _, p := range oldSegs {
		seq++
		path := filepath.Join(dir, fmt.Sprintf("blk-%08d.kfs", seq))
		if err := rewriteBlock(p, path); err != nil {
			return err
		}
		b, err := openBlock(path)
		if err != nil {
			return err
		}
		bs.m[filepath.Base(p)], converted[b] = b, filepath.Base(p)
	}
	named := make(map[string]bool)
	for _, p := range dirs {
		s, err := openSegment(p, bs)
		if err != nil {
			return fmt.Errorf("disk: upgrade %s: %w", filepath.Base(p), err)
		}
		repoint := false
		for _, b := range s.blocks {
			if name, ok := converted[b]; ok {
				named[name], repoint = true, true
			}
		}
		if repoint {
			err = replaceFile(p, mergedDir, s.encode(nil))
		}
		s.release()
		if err != nil {
			return err
		}
	}
	for _, p := range oldSegs {
		name := filepath.Base(p)
		live := slices.ContainsFunc(m.Live, func(e ManifestEntry) bool { return e.Name == name })
		if named[name] && !live && mversion != 0 {
			if err := failpoint.Eval(failpoint.DiskCompactRemove); err != nil {
				return err
			}
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("disk: remove upgraded %s: %w", name, err)
			}
			continue
		}
		s, err := legacySegment(p, bs.m[name])
		if err != nil {
			return err
		}
		err = replaceFile(p, mergedDir, s.encode(nil))
		s.release()
		if err != nil {
			return err
		}
	}

	if mversion == manifestVersionV1 {
		// bs holds every block a directory names.
		if m.MaxRecordID, err = bs.maxRecordID(); err != nil {
			return err
		}
	}
	if legacyManifest {
		m.NextSeq = seq + 1
		if err := writeManifest(dir, m); err != nil {
			return err
		}
	}
	slog.Info("disk: upgraded tier directory", "dir", dir, "segment_files", len(oldSegs), "manifest_version", mversion)
	return nil
}

// fileHeader reads a file's magic and version, zero when it has none.
func fileHeader(path string) (string, uint16) {
	var head [6]byte
	if f, err := os.Open(path); err == nil {
		_, _ = f.ReadAt(head[:], 0) // a short file leaves a header of zeros
		_ = f.Close()               // read-only
	}
	return string(head[:4]), binary.LittleEndian.Uint16(head[4:])
}

// replaceFile atomically replaces path with data through the staging
// protocol. A failure leaves the original file.
func replaceFile(path string, kind stageKind, data []byte) error {
	st, err := stageFile(path, kind, data)
	if err != nil {
		return err
	}
	if err := st.install(); err != nil {
		_ = os.Remove(st.tmpPath) // not discard: the final name is the original
		return err
	}
	return nil
}

// readManifestAnyVersion reads dir's manifest of any version, reporting
// it; version 0 and an empty manifest when there is none or it is corrupt
// (the tier's open adopts around those).
func readManifestAnyVersion(dir string) (Manifest, uint16, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil && !os.IsNotExist(err) {
		return Manifest{}, 0, err
	}
	switch m, err := decodeManifest(b); { // a missing file decodes as corrupt
	case err == nil:
		return m, manifestVersion, nil
	case !errors.Is(err, ErrNeedsUpgrade):
		return Manifest{}, 0, nil
	}
	// An intact version-1 or -2 manifest is a version-3 one with fields
	// missing: splice in a zero record-ID mark and an empty drained list.
	version := binary.LittleEndian.Uint16(b[4:])
	const head = 4 + 2 + 2 + 8
	v3 := binary.LittleEndian.AppendUint16(append([]byte(nil), b[:4]...), manifestVersion)
	v3 = append(v3, b[6:head]...)
	if version == manifestVersionV1 {
		v3 = binary.LittleEndian.AppendUint64(v3, 0)
	}
	v3 = binary.LittleEndian.AppendUint32(append(v3, b[head:len(b)-8]...), 0)
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.ChecksumIEEE(v3))
	m, err := decodeManifest(append(v3, manifestEndMagic...))
	return m, version, err
}

// rewriteLogHeader rewrites the v3 log file at path as v4, in place: the
// same bytes under the current header.
func rewriteLogHeader(path string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(img[4:], LogVersion)
	return replaceFile(path, flushedBlock, img)
}

// rewriteBlock writes the records of the v3 block or v2 segment file at
// from, in their ordinal order, as a v4 block at to — which may be from.
// Both lead their footer with the position of their u64 offsets table.
func rewriteBlock(from, to string) error {
	img, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	footer := blkFooterSize
	if string(img[:4]) == segMagic {
		footer = segFooterSize
	}
	var n, end uint64
	if len(img) >= blkHeaderSize+footer {
		n, end = uint64(le.Uint32(img[8:])), le.Uint64(img[len(img)-footer:])
	}
	if end < blkHeaderSize || end > uint64(len(img)-footer) || (uint64(len(img)-footer)-end)/8 < n {
		return fmt.Errorf("disk: upgrade %s: %w", filepath.Base(from), ErrCorrupt)
	}
	recs := make([]FlushRecord, n)
	for i := range recs {
		off := min(le.Uint64(img[end+8*uint64(i):]), end)
		if recs[i], _, err = DecodeFixedRecord(img[off:end]); err != nil {
			return fmt.Errorf("disk: upgrade %s ordinal %d: %w", filepath.Base(from), i, err)
		}
	}
	img, _ = encodeBlock(nil, to, recs)
	return replaceFile(to, flushedBlock, img)
}

// rewriteDirectory rewrites the v3 directory at path as v4, in place: the
// header, block table, Bloom filter and footer are copied, the key
// section is re-encoded, and the footer's bloomPos moves with it. The
// block table's record counts bound the postings; the blocks themselves
// are not opened.
func rewriteDirectory(path string) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	corrupt := fmt.Errorf("disk: upgrade %s: %w", filepath.Base(path), ErrCorrupt)
	size, le := len(img), binary.LittleEndian
	if size < segHeaderSize+segFooterSize || string(img[size-4:]) != segEndMagic {
		return corrupt
	}
	foot := img[size-segFooterSize:]
	keysPos, bloomPos := le.Uint64(foot[0:]), le.Uint64(foot[8:])
	if keysPos < segHeaderSize || keysPos > bloomPos || bloomPos > uint64(size-segFooterSize) {
		return corrupt
	}
	table := recReader{b: img[:keysPos], pos: segHeaderSize}
	var limit uint64
	for n := table.u32(); n > 0 && !table.bad; n-- {
		table.take(uint64(table.u16()))
		limit += uint64(table.u32())
	}
	if table.bad || limit > math.MaxUint32 {
		return corrupt
	}
	keys, start, posts, err := decodeKeysV3(img[keysPos:bloomPos], uint32(limit))
	if err != nil {
		return corrupt
	}
	out := append([]byte(nil), img[:keysPos]...)
	le.PutUint16(out[4:], segVersion)
	out = appendKeys(out, keys, start, posts)
	newBloomPos := uint64(len(out))
	out = append(out, img[bloomPos:]...)
	le.PutUint64(out[len(out)-segFooterSize+8:], newBloomPos)
	return replaceFile(path, mergedDir, out)
}

// decodeKeysV3 parses a v3 key section into resident form, with the
// checks the v4 reader makes of its content: keys strictly ascending
// (v3 readers let equal neighbours pass, though no writer produced
// them), every posting below limit, no list posting one ordinal twice in
// a row.
func decodeKeysV3(b []byte, limit uint32) (keys []string, start, posts []uint32, err error) {
	r := recReader{b: b}
	// Each key takes at least 6 bytes: a count that cannot fit is a
	// hostile length field, rejected before any allocation.
	nkeys := int(r.u32())
	if r.bad || nkeys > (len(b)-4)/6 {
		return nil, nil, nil, ErrCorrupt
	}
	start = make([]uint32, 1, nkeys+1)
	posts = make([]uint32, 0, (len(b)-4-6*nkeys)/4)
	ends := make([]int, 0, nkeys)
	var keyBytes []byte
	for i := 0; i < nkeys && !r.bad; i++ {
		keyBytes = append(keyBytes, r.take(uint64(r.u16()))...)
		ends = append(ends, len(keyBytes))
		n := int(r.u32())
		r.bad = r.bad || n > (len(b)-r.pos)/4
		for j := 0; j < n && !r.bad; j++ {
			p := r.u32()
			r.bad = r.bad || p >= limit || j > 0 && p == posts[len(posts)-1]
			posts = append(posts, p)
		}
		start = append(start, uint32(len(posts)))
	}
	if r.bad {
		return nil, nil, nil, ErrCorrupt
	}
	all := string(keyBytes)
	keys = make([]string, nkeys)
	from := 0
	for i, to := range ends {
		keys[i] = all[from:to]
		from = to
		if i > 0 && keys[i-1] >= keys[i] {
			return nil, nil, nil, ErrCorrupt
		}
	}
	return keys, start, posts, nil
}

// legacySegment reads the directory half of the v2 segment file at path
// as a directory over blk, which holds its records.
func legacySegment(path string, blk *block) (*segment, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	foot := img[len(img)-segFooterSize:] // rewriteBlock read it
	keysPos, bloomPos := le.Uint64(foot[8:]), le.Uint64(foot[16:])
	if keysPos > bloomPos || bloomPos > uint64(len(img)-segFooterSize) {
		return nil, ErrCorrupt
	}
	r := recReader{b: img[keysPos:bloomPos]}
	lists := make(map[string][]uint32)
	for n := r.u32(); n > 0 && !r.bad; n-- {
		key := r.str(uint64(r.u16()))
		for c := r.u32(); c > 0 && !r.bad; c-- {
			p := r.u32()
			r.bad = r.bad || p >= blk.count()
			if l := lists[key]; !r.bad && (len(l) == 0 || l[len(l)-1] != p) {
				lists[key] = append(l, p)
			}
		}
	}
	if r.bad {
		return nil, fmt.Errorf("disk: upgrade %s: %w", filepath.Base(path), ErrCorrupt)
	}
	blk.acquire()
	s := newSegment(path, []*block{blk})
	s.count = le.Uint32(img[8:])
	s.maxScore = math.Float64frombits(le.Uint64(foot[24:]))
	s.setKeys(lists)
	return s, nil
}

// DecodeFixedRecord decodes one fixed-width record from the front of b:
// u64 ID | i64 timestamp | u64 user | u32 followers | u8 geo | f64 score
// | f64 lat | f64 lon | u16 nkw, (u16 len, bytes)* | u32 textLen, text.
func DecodeFixedRecord(b []byte) (FlushRecord, int, error) {
	r := recReader{b: b}
	m := &types.Microblog{ID: types.ID(r.u64()), Timestamp: types.Timestamp(r.u64()), UserID: r.u64()}
	m.Followers, m.HasGeo = r.u32(), r.u8() == 1
	fr := FlushRecord{MB: m, Score: math.Float64frombits(r.u64())}
	m.Lat, m.Lon = math.Float64frombits(r.u64()), math.Float64frombits(r.u64())
	// Every keyword takes at least two bytes: a count that cannot fit is
	// a hostile length, refused before the allocation.
	if nkw := r.u16(); int(nkw) > (len(b)-r.pos)/2 {
		r.bad = true
	} else if nkw > 0 {
		m.Keywords = make([]string, nkw)
		for i := range m.Keywords {
			m.Keywords[i] = r.str(uint64(r.u16()))
		}
	}
	m.Text = r.str(uint64(r.u32()))
	if r.bad {
		return FlushRecord{}, 0, ErrCorrupt
	}
	return fr, r.pos, nil
}
