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

// Record block file layout (all integers little-endian):
//
//	header : magic "KFBK" | u16 version | u16 reserved | u32 count
//	records: count serialized records, back to back, best score first
//	offsets: count × u64 file offset of each record (ordinal order)
//	footer : u64 offsetsPos | "KFBE"
//
// A block is what a flush writes once and nothing ever writes again:
// microblogs are immutable and never deleted, so a block holds no
// garbage for a merge to reclaim. Directories (segment.go) address its
// records by ordinal; level merges rewrite directories, never blocks.
//
// A legacy v2 segment file (records, offsets, directory, Bloom and a
// footer in one file) opens as a block too — its header and offsets
// table sit where a block's do — so a merge over old files leaves their
// bytes in place and simply names them in the new directory's table.
const (
	blkMagic      = "KFBK"
	blkEndMagic   = "KFBE"
	blkHeaderSize = 4 + 2 + 2 + 4
	blkFooterSize = 8 + 4

	// Fixed positions inside an encoded record (see appendRecord): a
	// merge ranks and deduplicates on these two fields alone, so it
	// never decodes a record.
	recIDPos    = 0
	recScorePos = 8 + 8 + 8 + 4 + 1
	recFixedLen = recScorePos + 8
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
	offsets []uint64
	end     uint64 // file offset just past the last record
	size    int64  // whole-file byte length

	refs atomic.Int32
}

func (b *block) name() string  { return filepath.Base(b.path) }
func (b *block) count() uint32 { return uint32(len(b.offsets)) }
func (b *block) acquire()      { b.refs.Add(1) }

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
// score first) to buf and returns it with the records' offsets and the
// offset just past the last record.
func encodeBlock(buf []byte, recs []FlushRecord) (out []byte, offsets []uint64, end uint64) {
	buf = append(buf, blkMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, segVersion)
	buf = append(buf, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	offsets = make([]uint64, len(recs))
	for i, fr := range recs {
		offsets[i] = uint64(len(buf))
		buf = appendRecord(buf, fr)
	}
	end = uint64(len(buf))
	for _, off := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, off)
	}
	buf = binary.LittleEndian.AppendUint64(buf, end)
	buf = append(buf, blkEndMagic...)
	return buf, offsets, end
}

// newBlock wraps an open handle on a block file whose offsets table the
// caller already holds. The caller owns the first reference.
func newBlock(path string, f *os.File, offsets []uint64, end uint64, size int64) *block {
	b := &block{id: nextBlockID.Add(1), path: path, f: f, offsets: offsets, end: end, size: size}
	b.refs.Store(1)
	return b
}

// openBlock reads back a block's offsets table: a blk-* file, or a
// legacy v2 segment file serving as one. The caller owns the first
// reference.
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
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, corruptIfShort(err)
	}
	count := int64(binary.LittleEndian.Uint32(head[8:]))
	var footerSize int64
	var endMagic string
	switch magic, version := string(head[:4]), binary.LittleEndian.Uint16(head[4:]); {
	case magic == blkMagic && version == segVersion:
		footerSize, endMagic = blkFooterSize, blkEndMagic
	case magic == segMagic && version == segVersionV2:
		footerSize, endMagic = segFooterSize, segEndMagic
	default:
		return nil, ErrCorrupt
	}
	if st.Size() < blkHeaderSize+footerSize {
		return nil, ErrCorrupt
	}
	// Both footers lead with the offsets table's position and end with
	// their magic.
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(foot, st.Size()-footerSize); err != nil {
		return nil, err
	}
	if string(foot[footerSize-4:]) != endMagic {
		return nil, ErrCorrupt
	}
	end := binary.LittleEndian.Uint64(foot)
	if end < blkHeaderSize || int64(end)+8*count > st.Size()-footerSize {
		return nil, ErrCorrupt
	}
	table := make([]byte, 8*count)
	if _, err := f.ReadAt(table, int64(end)); err != nil {
		return nil, err
	}
	offsets := make([]uint64, count)
	prev := uint64(blkHeaderSize)
	for i := range offsets {
		off := binary.LittleEndian.Uint64(table[i*8:])
		if off < prev || off > end {
			return nil, ErrCorrupt
		}
		offsets[i], prev = off, off
	}
	ok = true
	return newBlock(path, f, offsets, end, st.Size()), nil
}

// corruptIfShort maps a read that ran off the end of a file to
// ErrCorrupt: the file is shorter than its own format says.
func corruptIfShort(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
}

// recordSize returns the on-disk byte length of the record at ord.
func (b *block) recordSize(ord uint32) int64 {
	start := b.offsets[ord]
	if int(ord)+1 < len(b.offsets) {
		return int64(b.offsets[ord+1] - start)
	}
	return int64(b.end - start)
}

// readRecord loads the record with the given ordinal.
func (b *block) readRecord(ord uint32) (FlushRecord, error) {
	if int(ord) >= len(b.offsets) {
		return FlushRecord{}, ErrCorrupt
	}
	if err := failpoint.Eval(failpoint.DiskPread); err != nil {
		return FlushRecord{}, err
	}
	buf := make([]byte, b.recordSize(ord))
	if _, err := b.f.ReadAt(buf, int64(b.offsets[ord])); err != nil && err != io.EOF {
		return FlushRecord{}, err
	}
	fr, _, err := decodeRecord(buf)
	return fr, err
}

// scan reads the block's record area once, front to back, handing fn
// each record's encoded bytes in ordinal order. The slice is only valid
// during the call.
func (b *block) scan(fn func(ord uint32, rec []byte) error) error {
	if len(b.offsets) == 0 {
		return nil
	}
	start := int64(b.offsets[0])
	r := bufio.NewReaderSize(io.NewSectionReader(b.f, start, int64(b.end)-start), 256<<10)
	var rec []byte
	for ord := range b.offsets {
		n := int(b.recordSize(uint32(ord)))
		if cap(rec) < n {
			rec = make([]byte, n)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(r, rec); err != nil {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, corruptIfShort(err))
		}
		if err := fn(uint32(ord), rec); err != nil {
			return err
		}
	}
	return nil
}

// scanRanks fills ids and scores (one slot per record, ordinal order)
// from the fixed-position fields of each encoded record — all a merge
// needs to rank postings across blocks and to spot a record stored twice.
func (b *block) scanRanks(ids []uint64, scores []float64) error {
	return b.scan(func(ord uint32, rec []byte) error {
		if len(rec) < recFixedLen {
			return fmt.Errorf("disk: scan %s ordinal %d: %w", b.name(), ord, ErrCorrupt)
		}
		ids[ord] = binary.LittleEndian.Uint64(rec[recIDPos:])
		scores[ord] = math.Float64frombits(binary.LittleEndian.Uint64(rec[recScorePos:]))
		return nil
	})
}
