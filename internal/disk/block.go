package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"kflushing/internal/failpoint"
)

// Record file layout, version 6 — a record block (blk-*.kfs) and a log
// file (wal-*.kfw, logfile.go) alike; all integers little-endian:
//
//	header : magic ("KFBK" block, "KFWL" log file) | u16 version
//	pages  : u32 payload length | u32 CRC32C of payload | payload, where
//	         the payload is whole records (see appendRecord) back to
//	         back — no more than PageSize bytes of them, or one record
//	         larger than that alone — or, in a log file only, a
//	         reference page (logfile.go)
//	index  : once the file is sealed, one last page whose payload is
//	         0xFF | pages × (u64 page offset | u32 first ordinal)
//	         | u32 records | u32 pages | "KFPX"
//
// Ordinal i is the file's i-th record. Page p holds the ordinals from
// its first up to the next page's first (the file's record count for the
// last page); a page holding none is a reference page. The index lists
// every page, so page p runs exactly to the next page's offset (to the
// index page for the last one), and a reader finds the page holding an
// ordinal by binary search over the resident first ordinals, preads it,
// checks its CRC and skips forward to the record. The index's marker
// byte is not a valid record flags byte, and its fixed tail lets a
// reader find it from the end of the file.
//
// A version 6 writer codes every record relative: its ID and timestamp
// are deltas from the record before it in the same page, the page's
// first from (0, 0), so a page decodes on its own and a reader walks it
// front to back through a pageCursor. Version 5 is the same layout with
// every record absolute, which the same decoder reads: v5 files are read
// in place, never rewritten.
//
// A block is what a flush writes once and nothing ever writes again:
// microblogs are immutable and never deleted, so a block holds no
// garbage for a merge to reclaim. Its records are stored best score
// first, packed greedily into pages, and it is sealed as it is written.
// Directories (segment.go) address records by ordinal; level merges
// rewrite directories, never blocks. A log file is written a batch at a
// time — a batch starts a page — and sealed when the log rotates; on a
// durable store log files are the only record files a flush names.
const (
	blkMagic   = "KFBK"
	blkVersion = 6
	// recordVersionV5 is the oldest record file version this build
	// reads: a v6 file whose records are all absolute.
	recordVersionV5 = 5

	// PageSize bounds a record page's payload: a page closes before the
	// record that would take it past PageSize bytes. A record larger than
	// that has a page of its own.
	PageSize = 4 << 10
	// HeaderSize is the length of a record file's header, PageHeaderSize
	// a page's.
	HeaderSize     = 4 + 2
	PageHeaderSize = 4 + 4

	indexMarker = 0xFF
	indexMagic  = "KFPX"
	indexEntry  = 8 + 4
	indexTail   = 4 + 4 + 4 // u32 records | u32 pages | magic
)

var pageCRC = crc32.MakeTable(crc32.Castagnoli)

// PageIndex locates the pages of a record file: page p starts at file
// offset Off[p] and holds the records with ordinals First[p] up to the
// next page's first ordinal, Records for the last page. A page holding
// none is a log file's reference page.
type PageIndex struct {
	Off     []uint64
	First   []uint32
	Records uint32
}

// Add indexes a page at off holding n records.
func (x *PageIndex) Add(off uint64, n uint32) {
	x.Off = append(x.Off, off)
	x.First = append(x.First, x.Records)
	x.Records += n
}

// Extend indexes y's pages after x's, y's offsets moved up by base: how a
// log indexes a batch it encoded on its own once it has written it at
// base.
func (x *PageIndex) Extend(y *PageIndex, base uint64) {
	for p, off := range y.Off {
		x.Off = append(x.Off, base+off)
		x.First = append(x.First, x.Records+y.First[p])
	}
	x.Records += y.Records
}

// Reset empties x, keeping its arrays.
func (x *PageIndex) Reset() { x.Off, x.First, x.Records = x.Off[:0], x.First[:0], 0 }

// page returns the page holding ordinal ord, which must be below
// Records: the last page whose first ordinal is at most ord. A reference
// page shares its first ordinal with the record page after it, so it is
// never the one.
func (x *PageIndex) page(ord uint32) int {
	p, _ := slices.BinarySearch(x.First, ord+1)
	return p - 1
}

// ordinals returns the ordinals page p holds: first up to end.
func (x *PageIndex) ordinals(p int) (first, end uint32) {
	if p+1 < len(x.First) {
		return x.First[p], x.First[p+1]
	}
	return x.First[p], x.Records
}

// sealPage fills in the header of the page at the front of b, whose
// payload runs to the end of b.
func sealPage(b []byte) {
	payload := b[PageHeaderSize:]
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, pageCRC))
}

// CheckPage validates the page at the front of b — its length within b,
// its checksum — and returns the payload.
func CheckPage(b []byte) ([]byte, bool) {
	if len(b) < PageHeaderSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-PageHeaderSize) {
		return nil, false
	}
	payload := b[PageHeaderSize : PageHeaderSize+int(n)]
	if crc32.Checksum(payload, pageCRC) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, false
	}
	return payload, true
}

// AppendRecordPages appends frs to buf as record pages of relative
// records, as many whole records to a page as PageSize allows, indexing
// each page in x at its offset in buf.
func AppendRecordPages(buf []byte, frs []FlushRecord, x *PageIndex) []byte {
	for i := 0; i < len(frs); {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // page header placeholder
		var base pageBase
		held := uint32(0)
		for ; i < len(frs); i++ {
			at := len(buf)
			buf = appendRecord(buf, frs[i], &base)
			if held > 0 && len(buf)-start-PageHeaderSize > PageSize {
				buf = buf[:at] // it opens the next page, coded afresh
				break
			}
			held++
		}
		sealPage(buf[start:])
		x.Add(uint64(start), held)
	}
	return buf
}

// AppendPageIndex appends the index page sealing a record file whose
// pages x lists.
func AppendPageIndex(buf []byte, x *PageIndex) []byte {
	le := binary.LittleEndian
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, indexMarker)
	for p, off := range x.Off {
		buf = le.AppendUint64(buf, off)
		buf = le.AppendUint32(buf, x.First[p])
	}
	buf = le.AppendUint32(buf, x.Records)
	buf = le.AppendUint32(buf, uint32(len(x.Off)))
	buf = append(buf, indexMagic...)
	sealPage(buf[start:])
	return buf
}

// IsPageIndex reports whether a page payload is the index.
func IsPageIndex(payload []byte) bool {
	return len(payload) > 0 && payload[0] == indexMarker
}

// decodePageIndex parses an index payload, accepting only an index whose
// pages tile the file from its header up to end, the index page's
// offset: every page at least one byte of payload, first ordinals from 0
// and never decreasing, a record page of more than one record no larger
// than PageSize — and, in a block (records), no reference page.
func decodePageIndex(payload []byte, end uint64, records bool) (PageIndex, bool) {
	le := binary.LittleEndian
	n := len(payload)
	if !IsPageIndex(payload) || n < 1+indexTail || string(payload[n-4:]) != indexMagic {
		return PageIndex{}, false
	}
	pages := uint64(le.Uint32(payload[n-8:]))
	if uint64(n) != 1+indexEntry*pages+indexTail {
		return PageIndex{}, false
	}
	x := PageIndex{Off: make([]uint64, pages), First: make([]uint32, pages), Records: le.Uint32(payload[n-12:])}
	for p := range x.Off {
		e := payload[1+indexEntry*p:]
		x.Off[p], x.First[p] = le.Uint64(e), le.Uint32(e[8:])
	}
	if pages == 0 {
		return x, x.Records == 0 && end == HeaderSize
	}
	if x.Off[0] != HeaderSize || x.First[0] != 0 {
		return PageIndex{}, false
	}
	for p := range x.Off {
		stop := end
		if p+1 < len(x.Off) {
			stop = x.Off[p+1]
		}
		first, last := x.ordinals(p)
		switch {
		case x.Off[p] >= stop || stop-x.Off[p] <= PageHeaderSize, last < first,
			last == first && records,
			last-first > 1 && stop-x.Off[p] > PageHeaderSize+PageSize:
			return PageIndex{}, false
		}
	}
	return x, true
}

// fileReader is what a block reads its pages through: the open file, or
// an image in memory under the page decoder's fuzz test.
type fileReader interface {
	io.ReaderAt
	Close() error
}

// nextBlockID hands out process-unique block identities, the record
// cache's key namespace. A block keeps its identity through every merge
// of the directories naming it, so cached records outlive compaction.
var nextBlockID atomic.Uint64

// block is one sealed record file — a record block or a log file — plus
// its resident page index. Blocks are reference counted by the
// directories naming them: a directory holds one reference per table
// entry for as long as any search can still reach it, so a block's
// handle closes only after its last directory is gone.
type block struct {
	id      uint64 // process-unique cache identity
	path    string
	f       fileReader
	version uint16 // the format version in the file's header
	pages   PageIndex
	end     uint64 // file offset just past the last page: where the index page starts
	size    int64  // whole-file byte length

	refs atomic.Int32
}

func (b *block) name() string  { return filepath.Base(b.path) }
func (b *block) count() uint32 { return b.pages.Records }
func (b *block) acquire()      { b.refs.Add(1) }

// isLog reports whether the block is a log file, whose records the log
// may still claim.
func (b *block) isLog() bool {
	_, ok := ParseLogName(b.name())
	return ok
}

// tryAcquire takes a reference unless the last one is already gone: the
// tier's open-file registry hands out a block only while it is live.
func (b *block) tryAcquire() bool {
	for {
		n := b.refs.Load()
		if n <= 0 {
			return false
		}
		if b.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops a reference, closing the file handle with the last one
// (a block whose flush never went live has none).
func (b *block) release() {
	if b.refs.Add(-1) == 0 && b.f != nil {
		// Read-only handle: a Close error cannot lose data, and the
		// last reader has nowhere to report it.
		_ = b.f.Close()
	}
}

// encodeBlock appends the block file holding recs (already sorted best
// score first) to buf, which must be empty, and returns it with the
// block it describes, to live at path; the block has no file handle
// until its flush installs it.
func encodeBlock(buf []byte, path string, recs []FlushRecord) ([]byte, *block) {
	buf = append(buf, blkMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, blkVersion)
	var x PageIndex
	buf = AppendRecordPages(buf, recs, &x)
	end := uint64(len(buf))
	buf = AppendPageIndex(buf, &x)
	return buf, newBlock(&block{path: path, version: blkVersion, pages: x, end: end, size: int64(len(buf))})
}

// newBlock gives b its cache identity and hands the caller its first
// reference.
func newBlock(b *block) *block {
	b.id = nextBlockID.Add(1)
	b.refs.Store(1)
	return b
}

// openBlock reads back the page index of a sealed record file: a blk-*
// file or a log file. The caller owns the first reference.
func openBlock(path string) (*block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil {
		var b *block
		if b, err = readIndex(f, st.Size(), filepath.Base(path)); err == nil {
			b.path, b.f = path, f
			return newBlock(b), nil
		}
	}
	_ = f.Close() // read-only; the read error is the one to surface
	return nil, err
}

// readIndex checks the header of the record file name, size bytes long
// in r, and reads back its index. A file without a valid index is not
// sealed, and no directory may name it.
func readIndex(r io.ReaderAt, size int64, name string) (*block, error) {
	head := make([]byte, HeaderSize)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, corruptIfShort(err)
	}
	if err := checkHeader(name, head); err != nil {
		return nil, err
	}
	if string(head[:4]) == segMagic { // a directory is never a block (an older one held its records)
		return nil, ErrCorrupt
	}
	unsealed := fmt.Errorf("%s not sealed: %w", name, ErrCorrupt)
	if size < HeaderSize+PageHeaderSize+1+indexTail {
		return nil, unsealed
	}
	tail := make([]byte, indexTail)
	if _, err := r.ReadAt(tail, size-indexTail); err != nil {
		return nil, err
	}
	if string(tail[8:]) != indexMagic {
		return nil, unsealed
	}
	n := PageHeaderSize + 1 + indexEntry*int64(binary.LittleEndian.Uint32(tail[4:])) + indexTail
	at := size - n
	if at < HeaderSize {
		return nil, ErrCorrupt
	}
	page := make([]byte, n)
	if _, err := r.ReadAt(page, at); err != nil {
		return nil, corruptIfShort(err)
	}
	payload, ok := CheckPage(page)
	if !ok || len(payload) != len(page)-PageHeaderSize {
		return nil, ErrCorrupt
	}
	x, ok := decodePageIndex(payload, uint64(at), string(head[:4]) == blkMagic)
	if !ok {
		return nil, ErrCorrupt
	}
	return &block{version: binary.LittleEndian.Uint16(head[4:]), pages: x, end: uint64(at), size: size}, nil
}

// corruptIfShort maps a read that ran off the end of a file to
// ErrCorrupt: the file is shorter than its own format says.
func corruptIfShort(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
}

// pageSpan returns the file offsets page p runs between.
func (b *block) pageSpan(p int) (at, end int64) {
	if p+1 < len(b.pages.Off) {
		return int64(b.pages.Off[p]), int64(b.pages.Off[p+1])
	}
	return int64(b.pages.Off[p]), int64(b.end)
}

// recordBytes is the share of its page's payload the record at ord
// takes: the measure of a dead copy the shadowed-bytes gauge sums.
func (b *block) recordBytes(ord uint32) int64 {
	p := b.pages.page(ord)
	at, end := b.pageSpan(p)
	first, last := b.pages.ordinals(p)
	return (end - at - PageHeaderSize) / int64(last-first)
}

// checkedPayload returns the payload of page image buf, which must be
// exactly one page whose checksum holds.
func checkedPayload(buf []byte) ([]byte, bool) {
	payload, ok := CheckPage(buf)
	return payload, ok && len(payload) == len(buf)-PageHeaderSize
}

// pageBufs recycles the page buffers searches read into: a decoded
// record copies every byte it keeps.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// readPage reads page p into buf, grown as needed, with one pread and
// checks it, returning the page and its payload.
func (b *block) readPage(p int, buf []byte) (page, payload []byte, err error) {
	if err := failpoint.Eval(failpoint.DiskPread); err != nil {
		return buf, nil, err
	}
	at, end := b.pageSpan(p)
	buf = slices.Grow(buf[:0], int(end-at))[:end-at]
	if _, err := b.f.ReadAt(buf, at); err != nil {
		return buf, nil, corruptIfShort(err)
	}
	payload, ok := checkedPayload(buf)
	if !ok {
		return buf, nil, ErrCorrupt
	}
	return buf, payload, nil
}

// readRecords hands fn the records at ords, ascending, and the length of
// each encoding, reading each page that holds one once.
func (b *block) readRecords(ords []uint32, fn func(ord uint32, fr FlushRecord, size int) error) error {
	pb := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(pb)
	var c pageCursor
	page, at := -1, uint32(0) // the page read, and the ordinal c is at
	for _, ord := range ords {
		if ord >= b.count() {
			return fmt.Errorf("disk: %s ordinal %d of %d: %w", b.name(), ord, b.count(), ErrCorrupt)
		}
		if p := b.pages.page(ord); p != page || ord < at {
			buf, payload, err := b.readPage(p, *pb)
			if *pb = buf[:0]; err != nil {
				return fmt.Errorf("disk: %s ordinal %d: %w", b.name(), ord, err)
			}
			c, page = pageCursor{q: payload}, p
			at, _ = b.pages.ordinals(p)
		}
		err := c.skip(ord - at)
		var fr FlushRecord
		var n int
		if err == nil {
			fr, n, err = c.next()
		}
		if err != nil {
			return fmt.Errorf("disk: %s ordinal %d: %w", b.name(), ord, err)
		}
		if err := fn(ord, fr, n); err != nil {
			return err
		}
		at = ord + 1
	}
	return nil
}

// scan reads the file's record pages front to back, checking each one,
// and hands read a cursor on each record in ordinal order — only those
// want marks, when want is not nil, and the cursor steps over the
// others; a page holding none is not read, and a long run of them is
// seeked over. read decodes exactly the one record, by next or rank.
func (b *block) scan(want []bool, read func(ord uint32, c *pageCursor) error) error {
	const bufSize = 256 << 10
	var r *bufio.Reader
	var pos int64 // the file offset r reads next
	var buf []byte
	for p := range b.pages.Off {
		first, last := b.pages.ordinals(p)
		if first == last || want != nil && !slices.Contains(want[first:last], true) {
			continue // a reference page, or nothing wanted
		}
		at, end := b.pageSpan(p)
		corrupt := func(err error) error {
			return fmt.Errorf("disk: scan %s ordinals %d to %d: %w", b.name(), first, last-1, err)
		}
		if gap := at - pos; r == nil || gap < 0 || gap > int64(r.Buffered())+bufSize {
			if r == nil {
				r = bufio.NewReaderSize(nil, bufSize)
			}
			r.Reset(io.NewSectionReader(b.f, at, int64(b.end)-at))
		} else if _, err := r.Discard(int(gap)); err != nil {
			return corrupt(corruptIfShort(err))
		}
		buf = slices.Grow(buf[:0], int(end-at))[:end-at]
		if _, err := io.ReadFull(r, buf); err != nil {
			return corrupt(corruptIfShort(err))
		}
		pos = end
		payload, ok := checkedPayload(buf)
		if !ok {
			return corrupt(ErrCorrupt)
		}
		c := pageCursor{q: payload}
		for ord := first; ord < last; ord++ {
			var err error
			if want == nil || want[ord] {
				err = read(ord, &c)
			} else if err = c.skip(1); err != nil {
				err = fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, err)
			}
			if err != nil {
				return err
			}
		}
		if len(c.q) != 0 {
			return corrupt(ErrCorrupt) // bytes past the page's last record
		}
	}
	return nil
}

// scanRanks fills ids and scores (one slot per record, ordinal order)
// from the rank prefix of each record — all a merge needs to rank
// postings across blocks and to spot a record stored twice. Only the
// records want marks are decoded past their ID and timestamp (all, when
// want is nil): a log file holds many records a merge's directories do
// not post.
func (b *block) scanRanks(ids []uint64, scores []float64, want []bool) error {
	return b.scan(want, func(ord uint32, c *pageCursor) error {
		id, score, err := c.rank()
		if err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, err)
		}
		ids[ord], scores[ord] = id, score
		return nil
	})
}

// scanRecords hands fn every record of the file, decoded, in ordinal
// order.
func (b *block) scanRecords(fn func(ord uint32, fr FlushRecord) error) error {
	return b.scan(nil, func(ord uint32, c *pageCursor) error {
		fr, _, err := c.next()
		if err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, err)
		}
		return fn(ord, fr)
	})
}
