package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"kflushing/internal/failpoint"
	"kflushing/internal/types"
)

// SyncDir fsyncs a directory so a just-renamed file's entry is durable:
// without it a crash can forget the rename even though the file data
// itself was synced.
func SyncDir(dir string) error {
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

// Directory file layout, format v4 (fixed-width integers little-endian):
//
//	header : magic "KFSG" | u16 version | u16 reserved | u32 live records
//	blocks : u32 nblocks, then per block:
//	         u16 nameLen | block file name | u32 record count
//	keys   : uvarint nkeys | uvarint nposts | key blocks | fence
//	         | u64 fencePos
//	bloom  : serialized key Bloom filter, see bloom.go
//	footer : u64 keysPos | u64 bloomPos | u64 shadowedBytes
//	         | f64 maxScore | "KFND"
//
// The keys, strictly ascending, are cut into key blocks of about
// keyBlockSize bytes: a block closes after the key whose postings carry
// it to keyBlockSize or past, so a key and its list never split. Per key:
//
//	uvarint shared | uvarint suffixLen | suffix | uvarint n
//	| uvarint first posting | (n−1) × varint delta from the previous one
//
// where shared is the length of the prefix the key has in common with
// the key before it — 0 for the first key of a block, which is stored
// whole. Deltas are zigzag-coded (binary.AppendVarint) because their sign
// depends on the record file: a block's ordinals ascend with rank, a log
// file's mostly descend. The fence, at fencePos bytes into the section,
// is uvarint nblocks, then per block uvarint keyLen | its first key |
// uvarint its offset into the section, so a reader can find the block
// that holds a key without decoding the others.
//
// A directory is the searchable half of the tier: sorted keys, each with
// its postings ranked best first (score descending, then ID descending),
// so a reader stops after k hits. A posting is an ordinal into the
// concatenation of the block table — table entry i covers ordinals
// [base[i], base[i]+count[i]) — which keeps it one number however many
// blocks a merged directory spans; the table is tens of entries, so
// resolving a posting is a short binary search. A flush writes one block
// and a seg-* directory over it; a level merge writes only a lvl-*
// directory over the union of its inputs' blocks (compact.go).
//
// A record ID stored in two blocks (a crash-recovery re-flush) is posted
// from the newest block only; the older copy stays in its block as dead
// weight, totalled in shadowedBytes.
const (
	segMagic      = "KFSG"
	segEndMagic   = "KFND"
	segVersion    = 4
	segHeaderSize = 4 + 2 + 2 + 4
	segFooterSize = 8 + 8 + 8 + 8 + 4
	keyBlockSize  = 4 << 10
)

// ErrCorrupt reports a malformed or truncated segment file.
var ErrCorrupt = errors.New("disk: corrupt segment")

// ErrNeedsUpgrade reports a file this build no longer reads — an older
// version of a known file kind, or a log in <dir>/wal — which the offline
// upgrade rewrites in current formats.
var ErrNeedsUpgrade = errors.New("retired file format: run `kflushctl upgrade <dir>` on the store directory first")

// checkVersion accepts the one version a reader knows. An older version
// of the same file kind needs the upgrade; any other is corruption.
func checkVersion(kind string, got, want uint16) error {
	if got == want {
		return nil
	}
	err := ErrCorrupt
	if got > 0 && got < want {
		err = ErrNeedsUpgrade
	}
	return fmt.Errorf("%s version %d: %w", kind, got, err)
}

// FlushRecord is one record handed to the disk tier: the microblog and
// the ranking score computed at its arrival.
type FlushRecord struct {
	MB    *types.Microblog
	Score float64
	// LogSeq names the write-ahead-log file framing the record (0 = no
	// log), and LogOrd the frame's ordinal in it. The log stamps both
	// (append, replay), and a Logged tier's flush posts the record at
	// that frame instead of writing it again. ReplaySeq names the file
	// whose replay brings the record back: LogSeq, or a newer file whose
	// reference frame lists it (package wal). A failed flush hands the
	// record's claims on both to the wrapper it restores.
	LogSeq, LogOrd, ReplaySeq uint32
}

// Flag bits of an encoded record.
const (
	flagGeo     = 1 << 0 // HasGeo
	flagTSScore = 1 << 1 // the score is float64(timestamp), bit for bit, and is not stored
	flagCoords  = 1 << 2 // lat and lon are stored (either is not +0)
	flagsKnown  = flagGeo | flagTSScore | flagCoords
)

// fixedLenBase is the length of a record with no keywords and no text in
// the fixed-width encoding the record cache's size model is based on.
const fixedLenBase = 8 + 8 + 8 + 4 + 1 + 8 + 8 + 8 + 2 + 4

// EncodeRecord appends the encoding of fr to buf and returns the
// extended slice. The write-ahead log frames the same encoding.
func EncodeRecord(buf []byte, fr FlushRecord) []byte { return appendRecord(buf, fr) }

// DecodeRecord decodes one record from the front of b, returning it and
// the number of bytes consumed.
func DecodeRecord(b []byte) (FlushRecord, int, error) { return decodeRecord(b) }

// appendRecord writes the record encoding:
//
//	flags u8 | uvarint ID | varint timestamp | [f64 score]
//	| uvarint user | uvarint followers | [f64 lat, f64 lon]
//	| uvarint nkw, (uvarint len, bytes)* | uvarint textLen, text
//
// ID and score lead (the rank prefix), so a merge ranks a block by
// decoding a few bytes per record. Under the Temporal ranker the score
// is the timestamp and is elided.
func appendRecord(buf []byte, fr FlushRecord) []byte {
	m := fr.MB
	le := binary.LittleEndian
	var flags byte
	if m.HasGeo {
		flags |= flagGeo
	}
	score := math.Float64bits(fr.Score)
	if score == math.Float64bits(float64(m.Timestamp)) {
		flags |= flagTSScore
	}
	lat, lon := math.Float64bits(m.Lat), math.Float64bits(m.Lon)
	if lat|lon != 0 {
		flags |= flagCoords
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(m.ID))
	buf = binary.AppendVarint(buf, int64(m.Timestamp))
	if flags&flagTSScore == 0 {
		buf = le.AppendUint64(buf, score)
	}
	buf = binary.AppendUvarint(buf, m.UserID)
	buf = binary.AppendUvarint(buf, uint64(m.Followers))
	if flags&flagCoords != 0 {
		buf = le.AppendUint64(buf, lat)
		buf = le.AppendUint64(buf, lon)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Keywords)))
	for _, kw := range m.Keywords {
		buf = binary.AppendUvarint(buf, uint64(len(kw)))
		buf = append(buf, kw...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Text)))
	return append(buf, m.Text...)
}

// fixedLen is fr's length in the fixed-width encoding: a function of the
// decoded record alone, which the record cache charges so that its
// behaviour does not move with the on-disk encoding.
func fixedLen(fr FlushRecord) int64 {
	n := int64(fixedLenBase + len(fr.MB.Text))
	for _, kw := range fr.MB.Keywords {
		n += int64(2 + len(kw))
	}
	return n
}

// recReader is a bounds-checked cursor over one encoded record. Every
// read checks the bytes left first; the first failure sticks, and the
// reads after it return zero values.
type recReader struct {
	b   []byte
	pos int
	bad bool
}

func (r *recReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)-r.pos) {
		r.bad = true
		return nil
	}
	p := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return p
}

func (r *recReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *recReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *recReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *recReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *recReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// cuvarint is uvarint that also refuses a non-minimal encoding (a last
// byte of zero after the first), so that every value has one encoding
// and whatever the key decoder accepts re-encodes to the same bytes.
func (r *recReader) cuvarint() uint64 {
	from := r.pos
	v := r.uvarint()
	if !r.bad && r.pos-from > 1 && r.b[r.pos-1] == 0 {
		r.bad = true
	}
	return v
}

func (r *recReader) varint() int64 {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// str reads n bytes as a string.
func (r *recReader) str(n uint64) string { return string(r.take(n)) }

// compactRank reads a record's rank prefix: flags, ID, timestamp and the
// score, stored or implied.
func (r *recReader) compactRank() (flags byte, id uint64, ts int64, score float64) {
	flags = r.u8()
	if flags&^flagsKnown != 0 {
		r.bad = true
	}
	id = r.uvarint()
	ts = r.varint()
	if flags&flagTSScore != 0 {
		score = float64(ts)
	} else {
		score = math.Float64frombits(r.u64())
	}
	return flags, id, ts, score
}

func decodeRecord(b []byte) (FlushRecord, int, error) {
	r := recReader{b: b}
	m := &types.Microblog{}
	fr := FlushRecord{MB: m}
	flags, id, ts, score := r.compactRank()
	m.ID, m.Timestamp, fr.Score = types.ID(id), types.Timestamp(ts), score
	m.HasGeo = flags&flagGeo != 0
	m.UserID = r.uvarint()
	followers := r.uvarint()
	if followers > math.MaxUint32 {
		r.bad = true
	}
	m.Followers = uint32(followers)
	if flags&flagCoords != 0 {
		m.Lat = math.Float64frombits(r.u64())
		m.Lon = math.Float64frombits(r.u64())
	}
	nkw := r.uvarint()
	// Every keyword takes at least one byte: a count that cannot fit is
	// a hostile length, refused before the allocation.
	if r.bad || nkw > uint64(len(b)-r.pos) {
		return FlushRecord{}, 0, ErrCorrupt
	}
	if nkw > 0 {
		m.Keywords = make([]string, nkw)
		for i := range m.Keywords {
			m.Keywords[i] = r.str(r.uvarint())
		}
	}
	m.Text = r.str(r.uvarint())
	if r.bad {
		return FlushRecord{}, 0, ErrCorrupt
	}
	return fr, r.pos, nil
}

// decodeRank reads only the ID and score of the record at the front of
// b — all a merge ranks by, and all the ID high-water read-back needs.
func decodeRank(b []byte) (id uint64, score float64, err error) {
	r := recReader{b: b}
	_, id, _, score = r.compactRank()
	if r.bad {
		return 0, 0, ErrCorrupt
	}
	return id, score, nil
}

// stageKind says which of the tier's three written files a staged file
// is, and with that its staging suffix and the failpoint sites its write
// and rename pass through (sites must be compile-time constants, so they
// are chosen here rather than passed in).
type stageKind int

const (
	flushedBlock stageKind = iota // blk-N.kfs.tmp
	flushedDir                    // seg-N.kfs.tmp
	mergedDir                     // lvl-N.kfs.compact
)

// stagedFile is a fully written, fsynced file still at its staging path
// — durable content, not yet visible to recovery. It becomes live via
// install (the atomic rename) or is removed via discard. Open removes a
// file left at a staging path as an orphan.
type stagedFile struct {
	kind    stageKind
	tmpPath string
	path    string
	size    int64
}

// stageFile writes data to path plus the kind's staging suffix and
// fsyncs it. A crash or error here leaves at most a staged orphan, never
// a file under its final name.
func stageFile(path string, kind stageKind, data []byte) (*stagedFile, error) {
	if err := failpoint.Eval(failpoint.DiskSegmentCreate); err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", filepath.Base(path), err)
	}
	tmpPath := path + ".tmp"
	if kind == mergedDir {
		tmpPath = path + ".compact"
	}
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", filepath.Base(path), err)
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
	// Records and directories are torn by separate sites, so fault
	// injection can cut either file short independently.
	var out []byte
	var fperr error
	if kind == flushedBlock {
		out, fperr = failpoint.EvalWrite(failpoint.DiskSegmentWrite, data)
	} else {
		out, fperr = failpoint.EvalWrite(failpoint.DiskSegmentDirWrite, data)
	}
	if _, err := f.Write(out); err != nil {
		return nil, fmt.Errorf("disk: write %s: %w", filepath.Base(path), err)
	}
	if fperr != nil {
		return nil, fperr
	}
	if err := failpoint.Eval(failpoint.DiskSegmentSync); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("disk: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("disk: close staged %s: %w", filepath.Base(path), err)
	}
	staged = true
	return &stagedFile{kind: kind, tmpPath: tmpPath, path: path, size: int64(len(data))}, nil
}

// install atomically renames the staged file to its final name and
// fsyncs the directory, so a file that HAS its final name is durably
// complete. After any error the caller discards.
func (st *stagedFile) install() error {
	var err error
	if st.kind == mergedDir {
		err = failpoint.Eval(failpoint.DiskCompactRename)
	} else {
		err = failpoint.Eval(failpoint.DiskSegmentRename)
	}
	if err != nil {
		return err
	}
	if err := os.Rename(st.tmpPath, st.path); err != nil {
		return fmt.Errorf("disk: rename %s: %w", filepath.Base(st.path), err)
	}
	return SyncDir(filepath.Dir(st.path))
}

// discard removes the file under whichever name it currently has.
// Sequence numbers are never reused, so the final name can only be this
// file's. Removal failures are harmless: Open sweeps staged orphans and
// files no manifest or directory references.
func (st *stagedFile) discard() {
	_ = os.Remove(st.tmpPath)
	_ = os.Remove(st.path)
}

// segment is one directory: the resident keys and postings of an
// immutable seg-* or lvl-* file and the blocks they address. Segments
// are reference counted: the tier holds one reference for a live
// segment and every in-flight search holds one per snapshot member, so
// compaction can retire a segment (unlink is safe while files are open)
// without yanking it — or the blocks it holds references on — from
// under concurrent readers.
type segment struct {
	path  string
	count uint32 // live records: stored in a named block and posted from it

	blocks []*block
	base   []uint32 // base[i] = first ordinal of blocks[i]; base[len(blocks)] = total

	keys  []string          // ascending
	start []uint32          // postings of keys[i] are posts[start[i]:start[i+1]]
	posts []uint32          // one backing array for every list
	index map[string]uint32 // key → its position in keys

	bloom    *bloomFilter
	maxScore float64
	shadowed int64 // bytes of records in the named blocks posted from a newer copy instead
	size     int64 // the directory file's byte length

	refs atomic.Int32
}

// newSegment assembles a directory over blocks the caller has already
// taken one reference each on; the segment keeps them until its own last
// reference goes. The caller owns the segment's first reference.
func newSegment(path string, blocks []*block) *segment {
	s := &segment{path: path, blocks: blocks, base: make([]uint32, len(blocks)+1)}
	for i, b := range blocks {
		s.base[i+1] = s.base[i] + b.count()
	}
	s.refs.Store(1)
	return s
}

// name returns the segment's file name, its identity in traces and
// admin output.
func (s *segment) name() string { return filepath.Base(s.path) }

// acquire takes a reference for a reader.
func (s *segment) acquire() { s.refs.Add(1) }

// release drops a reference; the last one lets go of the blocks.
func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		for _, b := range s.blocks {
			b.release()
		}
	}
}

// dataBytes is the directory file plus every block it names.
func (s *segment) dataBytes() int64 {
	n := s.size
	for _, b := range s.blocks {
		n += b.size
	}
	return n
}

// setKeys installs a key → ranked postings map as the resident
// directory, keys ascending, and builds the Bloom filter over them.
func (s *segment) setKeys(dir map[string][]uint32) {
	s.keys = make([]string, 0, len(dir))
	n := 0
	for key, posts := range dir {
		s.keys = append(s.keys, key)
		n += len(posts)
	}
	sort.Strings(s.keys)
	s.start = make([]uint32, 1, len(dir)+1)
	s.posts = make([]uint32, 0, n)
	for _, key := range s.keys {
		s.posts = append(s.posts, dir[key]...)
		s.start = append(s.start, uint32(len(s.posts)))
	}
	s.sealKeys()
	s.bloom = newBloomFilter(s.keys)
}

// sealKeys builds the lookup index once keys is final. The sorted slice
// is what merges walk and files are written from; searches go through
// the index, one hash probe instead of a cache-cold binary search over
// tens of thousands of strings.
func (s *segment) sealKeys() {
	s.index = make(map[string]uint32, len(s.keys))
	for i, key := range s.keys {
		s.index[key] = uint32(i)
	}
}

// postings returns key's ranked posting list, nil when absent.
func (s *segment) postings(key string) []uint32 {
	i, ok := s.index[key]
	if !ok {
		return nil
	}
	return s.posts[s.start[i]:s.start[i+1]]
}

// locate resolves a posting to its block and the ordinal inside it.
func (s *segment) locate(p uint32) (*block, uint32) {
	i := s.slot(p)
	return s.blocks[i], p - s.base[i]
}

// slot returns the index of the block table entry covering posting p:
// the last i with base[i] <= p.
func (s *segment) slot(p uint32) int {
	lo, hi := 0, len(s.blocks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.base[mid] <= p {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// encode appends the directory's file image to buf.
func (s *segment) encode(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, segMagic...)
	buf = le.AppendUint16(buf, segVersion)
	buf = append(buf, 0, 0)
	buf = le.AppendUint32(buf, s.count)
	buf = le.AppendUint32(buf, uint32(len(s.blocks)))
	for _, b := range s.blocks {
		name := b.name()
		buf = le.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = le.AppendUint32(buf, b.count())
	}
	keysPos := uint64(len(buf))
	buf = appendKeys(buf, s.keys, s.start, s.posts)
	bloomPos := uint64(len(buf))
	buf = s.bloom.encode(buf)
	buf = le.AppendUint64(buf, keysPos)
	buf = le.AppendUint64(buf, bloomPos)
	buf = le.AppendUint64(buf, uint64(s.shadowed))
	buf = le.AppendUint64(buf, math.Float64bits(s.maxScore))
	return append(buf, segEndMagic...)
}

// keyBlock is a fence entry: the index of a key block's first key and
// the block's offset into the key section.
type keyBlock struct{ first, off int }

// appendKeys appends the key section of keys (ascending) and their
// lists, posts[start[i]:start[i+1]], to buf.
func appendKeys(buf []byte, keys []string, start, posts []uint32) []byte {
	sec := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	buf = binary.AppendUvarint(buf, uint64(len(posts)))
	var fence []keyBlock
	open := -1 // where the open key block starts; -1 when none is open
	for i, key := range keys {
		shared := 0
		if open < 0 {
			open = len(buf)
			fence = append(fence, keyBlock{i, open - sec})
		} else {
			prev := keys[i-1]
			for shared < len(prev) && shared < len(key) && prev[shared] == key[shared] {
				shared++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(shared))
		buf = binary.AppendUvarint(buf, uint64(len(key)-shared))
		buf = append(buf, key[shared:]...)
		list := posts[start[i]:start[i+1]]
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		for j, p := range list {
			if j == 0 {
				buf = binary.AppendUvarint(buf, uint64(p))
			} else {
				buf = binary.AppendVarint(buf, int64(p)-int64(list[j-1]))
			}
		}
		if len(buf)-open >= keyBlockSize {
			open = -1
		}
	}
	fencePos := len(buf) - sec
	buf = appendFence(buf, keys, fence)
	return binary.LittleEndian.AppendUint64(buf, uint64(fencePos))
}

// appendFence appends the fence over key blocks to buf.
func appendFence(buf []byte, keys []string, fence []keyBlock) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fence)))
	for _, kb := range fence {
		buf = binary.AppendUvarint(buf, uint64(len(keys[kb.first])))
		buf = append(buf, keys[kb.first]...)
		buf = binary.AppendUvarint(buf, uint64(kb.off))
	}
	return buf
}

// decodeKeys parses a key section into resident form. It is
// bounds-checked end to end because Open feeds it whatever a crash or bit
// rot left on disk, and it accepts only what appendKeys writes: keys
// strictly ascending, every posting below limit, no list posting one
// ordinal twice in a row (a ranked list cannot), minimal varints, shared
// prefixes at their full length, key blocks cut where the writer cuts
// them, and the fence the writer puts after them — so no byte goes
// unchecked, and what it accepts re-encodes to the same bytes.
func decodeKeys(b []byte, limit uint32) (keys []string, start, posts []uint32, err error) {
	if len(b) < 8 {
		return nil, nil, nil, ErrCorrupt
	}
	fencePos := binary.LittleEndian.Uint64(b[len(b)-8:])
	if fencePos > uint64(len(b)-8) {
		return nil, nil, nil, ErrCorrupt
	}
	r := recReader{b: b[:fencePos]}
	nkeys, nposts := r.cuvarint(), r.cuvarint()
	// A key takes at least three bytes and a posting one: counts that
	// cannot fit are hostile, refused before any allocation.
	left := uint64(len(r.b) - r.pos)
	if r.bad || nkeys > left/3 || nposts > left {
		return nil, nil, nil, ErrCorrupt
	}
	start = make([]uint32, 1, nkeys+1)
	posts = make([]uint32, 0, nposts)
	ends := make([]int, 0, nkeys) // keys[i] ends at keyBytes[ends[i]]
	var keyBytes []byte
	var fence []keyBlock
	open, prevFrom := -1, 0
	for i := 0; i < int(nkeys) && !r.bad; i++ {
		from, prev := len(keyBytes), keyBytes[prevFrom:]
		at := r.pos
		shared := r.cuvarint()
		suffix := r.take(r.cuvarint())
		if open < 0 {
			// A block's first key is stored whole and sorts after the
			// previous block's last.
			open = at
			fence = append(fence, keyBlock{i, at})
			r.bad = r.bad || shared != 0 || i > 0 && bytes.Compare(suffix, prev) <= 0
		} else {
			// shared is the whole prefix in common with the previous key,
			// and the byte after it sorts higher (or the key is longer).
			r.bad = r.bad || shared > uint64(len(prev)) || len(suffix) == 0 ||
				shared < uint64(len(prev)) && suffix[0] <= prev[shared]
		}
		if r.bad {
			break
		}
		keyBytes = append(append(keyBytes, prev[:shared]...), suffix...)
		ends = append(ends, len(keyBytes))
		prevFrom = from
		n := r.cuvarint()
		r.bad = r.bad || n > nposts-uint64(len(posts))
		var p uint64
		for j := uint64(0); j < n && !r.bad; j++ {
			u := r.cuvarint()
			if j == 0 {
				p = u
			} else {
				d := int64(u>>1) ^ -int64(u&1)
				r.bad = r.bad || d == 0 // the same record twice in a row
				p += uint64(d)          // a negative result wraps far above limit
			}
			r.bad = r.bad || p >= uint64(limit)
			posts = append(posts, uint32(p))
		}
		start = append(start, uint32(len(posts)))
		if r.pos-open >= keyBlockSize {
			open = -1
		}
	}
	if r.bad || r.pos != len(r.b) || uint64(len(posts)) != nposts {
		return nil, nil, nil, ErrCorrupt
	}
	// One backing string for every key: a directory holds tens of
	// thousands, and Open decodes all of them.
	all := string(keyBytes)
	keys = make([]string, nkeys)
	from := 0
	for i, to := range ends {
		keys[i] = all[from:to]
		from = to
	}
	if !bytes.Equal(appendFence(nil, keys, fence), b[fencePos:len(b)-8]) {
		return nil, nil, nil, ErrCorrupt
	}
	return keys, start, posts, nil
}

// blockSet shares one open block per file among the directories naming
// it while a tier directory is being read. The set holds a reference of
// its own on every block until release, so a block no directory claimed
// closes then. Log file names resolve through logs, when set: in the
// log's directory, to the registry's one block per file.
type blockSet struct {
	m    map[string]*block
	logs *LogSet
}

// newBlockSet returns an empty set resolving log file names through logs
// (beside the directory naming them, when nil).
func newBlockSet(logs *LogSet) blockSet {
	return blockSet{m: make(map[string]*block), logs: logs}
}

// get returns the named block file under dir with a reference for the
// caller, opening it on first use.
func (bs blockSet) get(dir, name string) (*block, error) {
	b := bs.m[name]
	if b == nil {
		var err error
		if _, isLog := ParseLogName(name); isLog && bs.logs != nil {
			b, err = bs.logs.block(name)
		} else {
			b, err = openBlock(filepath.Join(dir, name))
		}
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", name, err)
		}
		bs.m[name] = b
	}
	b.acquire()
	return b, nil
}

// maxRecordID reads the highest record ID back from the blocks' records.
func (bs blockSet) maxRecordID() (uint64, error) {
	var maxID uint64
	for _, b := range bs.m {
		ids, scores := make([]uint64, b.count()), make([]float64, b.count())
		if err := b.scanRanks(ids, scores, nil); err != nil {
			return 0, err
		}
		for _, id := range ids {
			maxID = max(maxID, id)
		}
	}
	return maxID, nil
}

func (bs blockSet) release() {
	for _, b := range bs.m {
		b.release()
	}
}

// openSegment reads a directory file back into resident form, resolving
// the blocks it names through bs. The caller owns the first reference.
func openSegment(path string, bs blockSet) (*segment, error) {
	img, err := os.ReadFile(path) // everything needed is resident on return
	if err != nil {
		return nil, err
	}
	return decodeSegment(path, img, bs)
}

// decodeSegment is openSegment on the file image img of path.
func decodeSegment(path string, img []byte, bs blockSet) (*segment, error) {
	var err error
	size, le := len(img), binary.LittleEndian
	if size < segHeaderSize+segFooterSize || string(img[:4]) != segMagic || string(img[size-4:]) != segEndMagic {
		return nil, ErrCorrupt
	}
	if err := checkVersion("directory", le.Uint16(img[4:]), segVersion); err != nil {
		return nil, err
	}
	foot := img[size-segFooterSize:]
	keysPos, bloomPos := le.Uint64(foot[0:]), le.Uint64(foot[8:])
	if keysPos < segHeaderSize || keysPos > bloomPos || bloomPos > uint64(size-segFooterSize) {
		return nil, ErrCorrupt
	}
	table := recReader{b: img[:keysPos], pos: segHeaderSize}
	var names []string
	var counts []uint32
	for n := table.u32(); n > 0 && !table.bad; n-- {
		name := table.str(uint64(table.u16()))
		names, counts = append(names, name), append(counts, table.u32())
	}
	if table.bad {
		return nil, ErrCorrupt
	}
	dir := filepath.Dir(path)
	blocks := make([]*block, 0, len(names))
	ok := false
	defer func() {
		if !ok {
			for _, b := range blocks {
				b.release()
			}
		}
	}()
	for i, name := range names {
		// A name is a file in this directory, never a path out of it.
		if name != filepath.Base(name) {
			return nil, ErrCorrupt
		}
		b, err := bs.get(dir, name)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		if b.count() != counts[i] {
			return nil, fmt.Errorf("block %s holds %d records, directory says %d: %w", name, b.count(), counts[i], ErrCorrupt)
		}
	}
	s := newSegment(path, blocks)
	s.maxScore = math.Float64frombits(le.Uint64(foot[24:]))
	s.shadowed = int64(le.Uint64(foot[16:]))
	s.size = int64(size)
	s.count = le.Uint32(img[8:])
	if s.keys, s.start, s.posts, err = decodeKeys(img[keysPos:bloomPos], s.base[len(blocks)]); err != nil {
		return nil, err
	}
	if s.bloom, _, err = decodeBloom(img[bloomPos : size-segFooterSize]); err != nil {
		return nil, err
	}
	s.sealKeys()
	ok = true
	return s, nil
}
