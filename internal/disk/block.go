package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"kflushing/internal/failpoint"
)

// Record block file layout, version 4 (all integers little-endian):
//
//	header : magic "KFBK" | u16 version | u16 offset width (4 or 8)
//	         | u32 count
//	records: count records (see appendRecord), back to back, best score
//	         first
//	offsets: count × u32 (u64 at width 8) file offset of each record,
//	         in ordinal order
//	footer : u64 offsetsPos | "KFBE"
//
// A block is what a flush writes once and nothing ever writes again:
// microblogs are immutable and never deleted, so a block holds no
// garbage for a merge to reclaim. Directories (segment.go) address its
// records by ordinal; level merges rewrite directories, never blocks.
// The writer uses 8-byte offsets only once the record area reaches
// 4 GiB, so no flush size overflows the table.
//
// A sealed log file (logfile.go) opens as a block as well: its frame
// index is the offsets table, and a frame's header sits in front of
// each record. On a durable store those are the only record files a
// flush names.
const (
	blkMagic      = "KFBK"
	blkEndMagic   = "KFBE"
	blkVersion    = 4
	blkHeaderSize = 4 + 2 + 2 + 4
	blkFooterSize = 8 + 4
)

// nextBlockID hands out process-unique block identities, the record
// cache's key namespace. A block keeps its identity through every merge
// of the directories naming it, so cached records outlive compaction.
var nextBlockID atomic.Uint64

// block is one immutable on-disk run of records plus its resident
// offsets table. Blocks are reference counted by the directories naming
// them: a directory holds one reference per table entry for as long as
// any search can still reach it, so a block's handle closes only after
// its last directory is gone.
type block struct {
	id      uint64 // process-unique cache identity
	path    string
	f       *os.File
	log     bool  // a sealed log file: every record is the payload of a checksummed frame
	width   int64 // bytes per on-disk offsets table entry
	offsets []uint64
	end     uint64 // file offset just past the last record (a log file's frame index starts there)
	size    int64  // whole-file byte length

	refs atomic.Int32
}

func (b *block) name() string  { return filepath.Base(b.path) }
func (b *block) count() uint32 { return uint32(len(b.offsets)) }
func (b *block) acquire()      { b.refs.Add(1) }

// frameHeader is the gap in front of each record: a log file's frame
// header, nothing in a record block.
func (b *block) frameHeader() int64 {
	if b.log {
		return FrameHeaderSize
	}
	return 0
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
	le := binary.LittleEndian
	buf = append(buf, blkMagic...)
	buf = le.AppendUint16(buf, blkVersion)
	buf = append(buf, 0, 0) // offset width, set once the records are written
	buf = le.AppendUint32(buf, uint32(len(recs)))
	offsets := make([]uint64, len(recs))
	for i, fr := range recs {
		offsets[i] = uint64(len(buf))
		buf = appendRecord(buf, fr)
	}
	end := uint64(len(buf))
	width := int64(4)
	if end > math.MaxUint32 {
		width = 8
	}
	le.PutUint16(buf[6:], uint16(width))
	for _, off := range offsets {
		if width == 4 {
			buf = le.AppendUint32(buf, uint32(off))
		} else {
			buf = le.AppendUint64(buf, off)
		}
	}
	buf = le.AppendUint64(buf, end)
	buf = append(buf, blkEndMagic...)
	return buf, newBlock(&block{path: path, width: width,
		offsets: offsets, end: end, size: int64(len(buf))})
}

// newBlock gives b its cache identity and hands the caller its first
// reference.
func newBlock(b *block) *block {
	b.id = nextBlockID.Add(1)
	b.refs.Store(1)
	return b
}

// openBlock reads back a block's offsets table: a blk-* file or a sealed
// log file. The caller owns the first reference.
func openBlock(path string) (*block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Every early return below must drop the handle; the block owns it
	// only once construction succeeds.
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
	head := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(head[:LogHeaderSize], 0); err != nil {
		return nil, corruptIfShort(err)
	}
	le := binary.LittleEndian
	size := st.Size()
	if err := checkHeader(filepath.Base(path), head); err != nil {
		return nil, err
	}
	switch string(head[:4]) {
	case LogMagic:
		b, err := openLogBlock(path, f, size)
		ok = err == nil
		return b, err
	case segMagic: // a directory is never a block (an older one held its records)
		return nil, ErrCorrupt
	}
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, corruptIfShort(err)
	}
	width, count := int64(le.Uint16(head[6:])), int64(le.Uint32(head[8:]))
	if (width != 4 && width != 8) || size < blkHeaderSize+blkFooterSize {
		return nil, ErrCorrupt
	}
	foot := make([]byte, blkFooterSize)
	if _, err := f.ReadAt(foot, size-blkFooterSize); err != nil {
		return nil, err
	}
	if string(foot[blkFooterSize-4:]) != blkEndMagic {
		return nil, ErrCorrupt
	}
	end := le.Uint64(foot)
	if end < blkHeaderSize || end > uint64(size) || int64(end)+width*count > size-blkFooterSize {
		return nil, ErrCorrupt
	}
	table := make([]byte, width*count)
	if _, err := f.ReadAt(table, int64(end)); err != nil {
		return nil, err
	}
	offsets := make([]uint64, count)
	prev := uint64(blkHeaderSize)
	for i := range offsets {
		var off uint64
		if width == 4 {
			off = uint64(le.Uint32(table[i*4:]))
		} else {
			off = le.Uint64(table[i*8:])
		}
		if off < prev || off > end {
			return nil, ErrCorrupt
		}
		offsets[i], prev = off, off
	}
	ok = true
	return newBlock(&block{path: path, f: f, width: width, offsets: offsets, end: end, size: size}), nil
}

// corruptIfShort maps a read that ran off the end of a file to
// ErrCorrupt: the file is shorter than its own format says.
func corruptIfShort(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
}

// recordSize returns the on-disk byte length of the record at ord, its
// frame header (if any) not included. In a log file it is an upper bound:
// a reference frame may sit between two record frames (logfile.go), and
// reads with the record before it, which its frame header bounds.
func (b *block) recordSize(ord uint32) int64 {
	start := b.offsets[ord]
	if int(ord)+1 < len(b.offsets) {
		return int64(b.offsets[ord+1]-start) - b.frameHeader()
	}
	return int64(b.end - start)
}

// readRecord loads the record with the given ordinal.
func (b *block) readRecord(ord uint32) (FlushRecord, error) {
	rec, err := b.readPayload(ord)
	if err != nil {
		return FlushRecord{}, err
	}
	fr, _, err := decodeRecord(rec)
	return fr, err
}

// readPayload reads the encoded record at ord with one pread. A log
// file's record is read with its frame header and checked against it:
// the header bounds it, since a reference frame may follow it.
func (b *block) readPayload(ord uint32) ([]byte, error) {
	if int(ord) >= len(b.offsets) {
		return nil, ErrCorrupt
	}
	if err := failpoint.Eval(failpoint.DiskPread); err != nil {
		return nil, err
	}
	hdr := b.frameHeader()
	buf := make([]byte, hdr+b.recordSize(ord))
	if _, err := b.f.ReadAt(buf, int64(b.offsets[ord])-hdr); err != nil && err != io.EOF {
		return nil, err
	}
	if !b.log {
		return buf, nil
	}
	payload, ok := CheckFrame(buf)
	if !ok {
		return nil, fmt.Errorf("disk: %s frame %d: %w", b.name(), ord, ErrCorrupt)
	}
	return payload, nil
}

// scan reads the block's record area front to back, handing fn each
// record's encoded bytes in ordinal order — only those want marks, when
// want is not nil; the others are skipped, and a long run of them is
// not read at all. The slice is only valid during the call.
func (b *block) scan(want []bool, fn func(ord uint32, rec []byte) error) error {
	if len(b.offsets) == 0 {
		return nil
	}
	const bufSize = 256 << 10
	hdr := b.frameHeader()
	pos := int64(b.offsets[0]) - hdr // the file offset r reads next
	r := bufio.NewReaderSize(io.NewSectionReader(b.f, pos, int64(b.end)-pos), bufSize)
	var buf []byte
	for ord := range b.offsets {
		if want != nil && !want[ord] {
			continue
		}
		at, n := int64(b.offsets[ord])-hdr, int(hdr+b.recordSize(uint32(ord)))
		if gap := at - pos; gap > int64(r.Buffered())+bufSize {
			r.Reset(io.NewSectionReader(b.f, at, int64(b.end)-at))
		} else if _, err := r.Discard(int(gap)); err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, corruptIfShort(err))
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, corruptIfShort(err))
		}
		pos = at + int64(n)
		rec := buf
		if b.log {
			// The frame header bounds the record: a reference frame may
			// follow it. A scan reads rank prefixes in bulk and leaves the
			// checksum to the pread of a search.
			m := binary.LittleEndian.Uint32(buf)
			if uint64(m) > uint64(n-FrameHeaderSize) {
				return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, ErrCorrupt)
			}
			rec = buf[FrameHeaderSize : FrameHeaderSize+int(m)]
		}
		if err := fn(uint32(ord), rec); err != nil {
			return err
		}
	}
	return nil
}

// scanRanks fills ids and scores (one slot per record, ordinal order)
// from the rank prefix of each encoded record — all a merge needs to
// rank postings across blocks and to spot a record stored twice. Only
// the records want marks are decoded (all, when want is nil): a log file
// frames many records a merge's directories do not post.
func (b *block) scanRanks(ids []uint64, scores []float64, want []bool) error {
	return b.scan(want, func(ord uint32, rec []byte) error {
		id, score, err := decodeRank(rec)
		if err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, err)
		}
		ids[ord], scores[ord] = id, score
		return nil
	})
}
