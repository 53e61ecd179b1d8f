package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"kflushing/internal/failpoint"
	"kflushing/internal/types"
)

// syncDir fsyncs a directory so a just-renamed file's entry is durable:
// without it a crash can forget the rename even though the file data
// itself was synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("disk: open directory for sync: %w", err)
	}
	if err := failpoint.Eval(failpoint.DiskDirSync); err != nil {
		_ = d.Close()
		return fmt.Errorf("disk: sync directory: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the Sync error is the one to surface
		return fmt.Errorf("disk: sync directory: %w", err)
	}
	return d.Close()
}

// Segment file layout (all integers little-endian):
//
//	header : magic "KFSG" | u16 version | u16 reserved | u32 count
//	records: count serialized records, back to back, best score first
//	offsets: count × u64 file offset of each record (ordinal order)
//	dir    : u32 nkeys, then per key:
//	         u16 keyLen | key bytes | u32 n | n × u32 record ordinals
//	bloom  : (v2 only) serialized key Bloom filter, see bloom.go
//	footer : v1: u64 offsetsPos | u64 dirPos | f64 maxScore | "KFND"
//	         v2: u64 offsetsPos | u64 dirPos | u64 bloomPos
//	             | f64 maxScore | "KFND"
//
// Records are written in descending score order, so every per-key
// ordinal list is already ranked and a reader can stop after k hits.
//
// Version 2 adds the Bloom block: a filter over the directory keys that
// lets a search skip segments provably lacking every requested key.
// The format is backward compatible — the header version selects the
// footer layout, so v1 files written before the Bloom block still open
// and simply fall back to directory lookup (segment.bloom == nil).
const (
	segMagic     = "KFSG"
	segEndMagic  = "KFND"
	segVersionV1 = 1
	segVersion   = 2 // current write version
	footerSizeV1 = 8 + 8 + 8 + 4
	footerSizeV2 = 8 + 8 + 8 + 8 + 4
)

// nextSegmentID hands out process-unique segment identities, the record
// cache's key namespace. IDs are never reused, so entries of a segment
// retired by compaction can never alias a live one.
var nextSegmentID atomic.Uint64

// ErrCorrupt reports a malformed or truncated segment file.
var ErrCorrupt = errors.New("disk: corrupt segment")

// FlushRecord is one record handed to the disk tier: the microblog and
// the ranking score computed at its arrival.
type FlushRecord struct {
	MB    *types.Microblog
	Score float64
	// LogSeq names the write-ahead-log file holding the record's newest
	// frame (0 = the snapshot, or no log). The tier neither reads nor
	// persists it: it rides along so the log can tell the engine where a
	// frame landed (append, replay) and a failed flush can hand the
	// record's claim on that file to the wrapper it restores.
	LogSeq uint32
}

// segment is one immutable on-disk file plus its in-memory directory.
// Segments are reference counted: the tier holds one reference for a
// live segment and every in-flight search holds one per snapshot
// member, so compaction can retire a segment (unlink is safe while the
// file is open) without yanking it from under concurrent readers.
type segment struct {
	id       uint64 // process-unique cache identity
	version  uint16
	path     string
	f        *os.File
	count    uint32
	offsets  []uint64
	dir      map[string][]uint32
	bloom    *bloomFilter // nil for v1 segments
	maxScore float64
	end      uint64 // file offset just past the last record
	size     int64  // whole-file byte length

	refs atomic.Int32
}

// name returns the segment's file name, its identity in traces and
// admin output.
func (s *segment) name() string { return filepath.Base(s.path) }

// acquire takes a reference for a reader.
func (s *segment) acquire() { s.refs.Add(1) }

// release drops a reference, closing the file handle when the last one
// goes away.
func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		// Read-only handle: a Close error cannot lose data, and the
		// last reader has nowhere to report it.
		_ = s.f.Close()
	}
}

// EncodeRecord appends the binary encoding of fr to buf and returns the
// extended slice. The format is shared with the write-ahead log.
func EncodeRecord(buf []byte, fr FlushRecord) []byte { return appendRecord(buf, fr) }

// DecodeRecord decodes one record from the front of b, returning it and
// the number of bytes consumed.
func DecodeRecord(b []byte) (FlushRecord, int, error) { return decodeRecord(b) }

func appendRecord(buf []byte, fr FlushRecord) []byte {
	m := fr.MB
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:8]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(tmp[:2], v)
		buf = append(buf, tmp[:2]...)
	}
	put64(uint64(m.ID))
	put64(uint64(m.Timestamp))
	put64(m.UserID)
	put32(m.Followers)
	if m.HasGeo {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	put64(math.Float64bits(fr.Score))
	put64(math.Float64bits(m.Lat))
	put64(math.Float64bits(m.Lon))
	put16(uint16(len(m.Keywords)))
	for _, kw := range m.Keywords {
		put16(uint16(len(kw)))
		buf = append(buf, kw...)
	}
	put32(uint32(len(m.Text)))
	buf = append(buf, m.Text...)
	return buf
}

func decodeRecord(b []byte) (FlushRecord, int, error) {
	var fr FlushRecord
	m := &types.Microblog{}
	pos := 0
	need := func(n int) bool { return pos+n <= len(b) }
	if !need(8*2 + 8 + 4 + 1 + 8*3 + 2) {
		return fr, 0, ErrCorrupt
	}
	m.ID = types.ID(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	m.Timestamp = types.Timestamp(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	m.UserID = binary.LittleEndian.Uint64(b[pos:])
	pos += 8
	m.Followers = binary.LittleEndian.Uint32(b[pos:])
	pos += 4
	m.HasGeo = b[pos] == 1
	pos++
	fr.Score = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	m.Lat = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	m.Lon = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	nkw := int(binary.LittleEndian.Uint16(b[pos:]))
	pos += 2
	if nkw > 0 {
		m.Keywords = make([]string, nkw)
		for i := 0; i < nkw; i++ {
			if !need(2) {
				return fr, 0, ErrCorrupt
			}
			l := int(binary.LittleEndian.Uint16(b[pos:]))
			pos += 2
			if !need(l) {
				return fr, 0, ErrCorrupt
			}
			m.Keywords[i] = string(b[pos : pos+l])
			pos += l
		}
	}
	if !need(4) {
		return fr, 0, ErrCorrupt
	}
	tl := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	if !need(tl) {
		return fr, 0, ErrCorrupt
	}
	m.Text = string(b[pos : pos+tl])
	pos += tl
	fr.MB = m
	return fr, pos, nil
}

// writeSegment serializes recs (already sorted best score first) with
// their directory to path at the current format version and returns the
// opened segment. scratch, when non-nil, is reused as the encode buffer;
// the (possibly grown) buffer is returned for the caller to keep.
func writeSegment(path string, recs []FlushRecord, dir map[string][]uint32, scratch []byte) (*segment, []byte, error) {
	return writeSegmentVersioned(path, recs, dir, segVersion, scratch)
}

// writeSegmentVersioned writes a segment at an explicit format version:
// the build stage (encode + staged write + fsync) followed immediately
// by the install stage (rename + directory fsync + reopen). The flush
// pipeline calls the two stages separately so the build can run off the
// tier's read lock; this wrapper serves compaction and tests.
func writeSegmentVersioned(path string, recs []FlushRecord, dir map[string][]uint32, version uint16, scratch []byte) (*segment, []byte, error) {
	st, scratch, err := stageSegment(path, recs, dir, version, scratch)
	if err != nil {
		return nil, scratch, err
	}
	s, err := st.install()
	return s, scratch, err
}

// stagedSegment is a fully built, fsynced segment file still at its
// temporary path — durable content, not yet visible to recovery. It
// becomes live via install (the atomic rename) or is discarded via
// abort.
type stagedSegment struct {
	tmpPath  string
	path     string
	version  uint16
	count    uint32
	offsets  []uint64
	dir      map[string][]uint32
	bloom    *bloomFilter
	maxScore float64
	end      uint64
	size     int64
}

// stageSegment runs the build stage: encode recs and their directory,
// write everything to path+".tmp", and fsync it. A crash or error here
// leaves only a .tmp orphan (removed by Open), never a live segment.
func stageSegment(path string, recs []FlushRecord, dir map[string][]uint32, version uint16, scratch []byte) (*stagedSegment, []byte, error) {
	buf := scratch[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64*len(recs)+64)
	}
	buf = append(buf, segMagic...)
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], version)
	buf = append(buf, tmp[:2]...)
	buf = append(buf, 0, 0)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(recs)))
	buf = append(buf, tmp[:4]...)

	offsets := make([]uint64, len(recs))
	maxScore := math.Inf(-1)
	for i, fr := range recs {
		offsets[i] = uint64(len(buf))
		buf = appendRecord(buf, fr)
		if fr.Score > maxScore {
			maxScore = fr.Score
		}
	}
	end := uint64(len(buf))

	offsetsPos := uint64(len(buf))
	for _, off := range offsets {
		binary.LittleEndian.PutUint64(tmp[:], off)
		buf = append(buf, tmp[:8]...)
	}

	dirPos := uint64(len(buf))
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(dir)))
	buf = append(buf, tmp[:4]...)
	for key, ords := range dir {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(key)))
		buf = append(buf, tmp[:2]...)
		buf = append(buf, key...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(ords)))
		buf = append(buf, tmp[:4]...)
		for _, o := range ords {
			binary.LittleEndian.PutUint32(tmp[:4], o)
			buf = append(buf, tmp[:4]...)
		}
	}

	var bloom *bloomFilter
	var bloomPos uint64
	if version >= 2 {
		keys := make([]string, 0, len(dir))
		for key := range dir {
			keys = append(keys, key)
		}
		bloom = newBloomFilter(keys)
		bloomPos = uint64(len(buf))
		buf = bloom.encode(buf)
	}

	binary.LittleEndian.PutUint64(tmp[:], offsetsPos)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:], dirPos)
	buf = append(buf, tmp[:8]...)
	if version >= 2 {
		binary.LittleEndian.PutUint64(tmp[:], bloomPos)
		buf = append(buf, tmp[:8]...)
	}
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(maxScore))
	buf = append(buf, tmp[:8]...)
	buf = append(buf, segEndMagic...)

	// Stage at a temp path and sync. The install stage later renames
	// into place and syncs the directory: a crash anywhere before the
	// rename leaves only a .tmp orphan (removed by Open), never a
	// half-written live segment, and a segment that HAS its final name
	// is durably complete.
	tmpPath := path + ".tmp"
	if err := failpoint.Eval(failpoint.DiskSegmentCreate); err != nil {
		return nil, buf, fmt.Errorf("disk: create segment: %w", err)
	}
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, buf, fmt.Errorf("disk: create segment: %w", err)
	}
	// Until staging succeeds any failure removes the staged file; the
	// original error is the one to surface, not the cleanup's.
	staged := false
	defer func() {
		if !staged {
			_ = f.Close()
			_ = os.Remove(tmpPath)
		}
	}()
	// The record block and the metadata block (offsets, directory,
	// Bloom, footer) are written separately so fault injection can tear
	// either independently.
	recBlock, fperr := failpoint.EvalWrite(failpoint.DiskSegmentWrite, buf[:end])
	if _, err := f.Write(recBlock); err != nil {
		return nil, buf, fmt.Errorf("disk: write segment: %w", err)
	}
	if fperr != nil {
		return nil, buf, fperr
	}
	metaBlock, fperr := failpoint.EvalWrite(failpoint.DiskSegmentDirWrite, buf[end:])
	if _, err := f.Write(metaBlock); err != nil {
		return nil, buf, fmt.Errorf("disk: write segment directory: %w", err)
	}
	if fperr != nil {
		return nil, buf, fperr
	}
	if err := failpoint.Eval(failpoint.DiskSegmentSync); err != nil {
		return nil, buf, err
	}
	if err := f.Sync(); err != nil {
		return nil, buf, fmt.Errorf("disk: sync segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, buf, fmt.Errorf("disk: close staged segment: %w", err)
	}
	staged = true
	return &stagedSegment{
		tmpPath: tmpPath, path: path, version: version,
		count: uint32(len(recs)), offsets: offsets, dir: dir,
		bloom: bloom, maxScore: maxScore, end: end, size: int64(len(buf)),
	}, buf, nil
}

// install runs the install stage: atomically rename the staged file to
// its final name, fsync the directory, and open the live segment. An
// error before the rename leaves the staged file for abort to clean up;
// an error after it leaves a complete live segment that recovery adopts.
func (st *stagedSegment) install() (*segment, error) {
	if err := failpoint.Eval(failpoint.DiskSegmentRename); err != nil {
		return nil, err
	}
	if err := os.Rename(st.tmpPath, st.path); err != nil {
		return nil, fmt.Errorf("disk: rename segment: %w", err)
	}
	st.tmpPath = "" // renamed; abort must not unlink the live file
	if err := syncDir(filepath.Dir(st.path)); err != nil {
		return nil, err
	}
	if err := failpoint.Eval(failpoint.DiskSegmentAfterRename); err != nil {
		return nil, err
	}
	f, err := os.Open(st.path)
	if err != nil {
		return nil, err
	}
	s := &segment{
		id: nextSegmentID.Add(1), version: st.version,
		path: st.path, f: f, count: st.count,
		offsets: st.offsets, dir: st.dir, bloom: st.bloom,
		maxScore: st.maxScore, end: st.end, size: st.size,
	}
	s.refs.Store(1) // the tier's reference
	return s, nil
}

// abort discards a staged segment that will not be installed. Safe to
// call after a failed install: once the rename landed the file is live
// and abort leaves it alone.
func (st *stagedSegment) abort() {
	if st.tmpPath != "" {
		_ = os.Remove(st.tmpPath)
	}
}

// openSegment reads back a segment's offsets table and directory,
// supporting recovery of a disk tier across process restarts.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Every early return below must drop the handle; the segment owns
	// it only once construction succeeds.
	ok := false
	defer func() {
		if !ok {
			_ = f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 12 {
		return nil, ErrCorrupt
	}
	head := make([]byte, 12)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head[:4]) != segMagic {
		return nil, ErrCorrupt
	}
	version := binary.LittleEndian.Uint16(head[4:])
	count := binary.LittleEndian.Uint32(head[8:])

	var footerSize int
	switch version {
	case segVersionV1:
		footerSize = footerSizeV1
	case segVersion:
		footerSize = footerSizeV2
	default:
		return nil, ErrCorrupt
	}
	if st.Size() < int64(footerSize)+12 {
		return nil, ErrCorrupt
	}
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(foot, st.Size()-int64(footerSize)); err != nil {
		return nil, err
	}
	if string(foot[footerSize-4:]) != segEndMagic {
		return nil, ErrCorrupt
	}
	offsetsPos := binary.LittleEndian.Uint64(foot[0:])
	dirPos := binary.LittleEndian.Uint64(foot[8:])
	var bloomPos uint64
	if version >= 2 {
		bloomPos = binary.LittleEndian.Uint64(foot[16:])
	}
	maxScore := math.Float64frombits(binary.LittleEndian.Uint64(foot[footerSize-12:]))

	tailLen := st.Size() - int64(footerSize) - int64(offsetsPos)
	if tailLen < 0 || dirPos < offsetsPos ||
		(version >= 2 && bloomPos < dirPos) {
		return nil, ErrCorrupt
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, int64(offsetsPos)); err != nil {
		return nil, err
	}
	offsets := make([]uint64, count)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(tail[i*8:])
	}
	db := tail[dirPos-offsetsPos:]
	pos := 0
	nkeys := int(binary.LittleEndian.Uint32(db[pos:]))
	pos += 4
	dir := make(map[string][]uint32, nkeys)
	for i := 0; i < nkeys; i++ {
		kl := int(binary.LittleEndian.Uint16(db[pos:]))
		pos += 2
		key := string(db[pos : pos+kl])
		pos += kl
		n := int(binary.LittleEndian.Uint32(db[pos:]))
		pos += 4
		ords := make([]uint32, n)
		for j := 0; j < n; j++ {
			ords[j] = binary.LittleEndian.Uint32(db[pos:])
			pos += 4
		}
		dir[key] = ords
	}
	var bloom *bloomFilter
	if version >= 2 {
		bloom, _, err = decodeBloom(tail[bloomPos-offsetsPos:])
		if err != nil {
			return nil, err
		}
	}
	s := &segment{
		id: nextSegmentID.Add(1), version: version,
		path: path, f: f, count: count,
		offsets: offsets, dir: dir, bloom: bloom,
		maxScore: maxScore, end: offsetsPos, size: st.Size(),
	}
	s.refs.Store(1) // the tier's reference
	ok = true
	return s, nil
}

// recordSize returns the on-disk byte length of the record at ord.
func (s *segment) recordSize(ord uint32) int64 {
	start := s.offsets[ord]
	if int(ord)+1 < len(s.offsets) {
		return int64(s.offsets[ord+1] - start)
	}
	return int64(s.end - start)
}

// readRecord loads the record with the given ordinal.
func (s *segment) readRecord(ord uint32) (FlushRecord, error) {
	if int(ord) >= len(s.offsets) {
		return FlushRecord{}, ErrCorrupt
	}
	start := s.offsets[ord]
	var limit uint64
	if int(ord)+1 < len(s.offsets) {
		limit = s.offsets[ord+1]
	} else {
		limit = s.end
	}
	if err := failpoint.Eval(failpoint.DiskPread); err != nil {
		return FlushRecord{}, err
	}
	b := make([]byte, limit-start)
	if _, err := s.f.ReadAt(b, int64(start)); err != nil && err != io.EOF {
		return FlushRecord{}, err
	}
	fr, _, err := decodeRecord(b)
	return fr, err
}

func (s *segment) close() error { return s.f.Close() }
