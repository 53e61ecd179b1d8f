package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Log file layout (all integers little-endian). The write-ahead log
// writes these files into the tier's directory, and on a durable store
// they are the tier's record files too: a flush writes only a directory
// whose block table names them (tier.go, stageFlush).
//
//	header : magic "KFWL" | u16 version
//	frames : u32 payload length | u32 CRC32C of payload | payload, where
//	         the payload is one record (see appendRecord) or a reference
//	         frame: 0xFE | uvarint groups, then per group (file seq
//	         ascending) uvarint seq delta | uvarint n | n × uvarint
//	         ordinal delta (ordinals ascending; the first seq and
//	         ordinal of a group are deltas from 0)
//	index  : once the file is sealed: one frame whose payload is
//	         0xFF | count × u32 record frame offset | u32 count | "KFWX"
//
// The frame index is the log file's counterpart of a record block's
// offsets table: the offset of each record frame, in append order, so a
// directory addresses a record as (file, frame ordinal) and a search
// reads it with one pread. It is written once, when the log seals the
// file, and then fsynced; a directory names only sealed files, so a
// named file is complete and never grows again. Its marker byte is not a
// valid record flags byte, and its fixed tail lets a reader find it from
// the end of the file.
//
// A reference frame hands the replay of records framed in older files to
// the file holding it (see package wal): it lists (file seq, ordinal)
// pairs, and replay reads each listed frame through its file's index. It
// is not a record, so the index does not list it and ordinals do not
// count it; a record frame it follows reads with it as a tail the frame
// header excludes. Its encoding is canonical — every group non-empty,
// every delta past the first positive, every varint minimal, every seq
// below the frame's own file — so a decoded frame re-encodes to the
// same bytes.
const (
	LogMagic        = "KFWL"
	LogVersion      = 4
	LogHeaderSize   = 4 + 2
	FrameHeaderSize = 4 + 4

	frameIndexMarker = 0xFF
	frameIndexMagic  = "KFWX"
	referenceMarker  = 0xFE
)

var logCRC = crc32.MakeTable(crc32.Castagnoli)

// LogName is the file name of log file seq.
func LogName(seq uint32) string { return fmt.Sprintf("wal-%08d.kfw", seq) }

// ParseLogName returns the sequence of a log file name.
func ParseLogName(name string) (uint32, bool) {
	var seq uint32
	if _, err := fmt.Sscanf(filepath.Base(name), "wal-%08d.kfw", &seq); err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// AppendLogHeader appends the header of a log file of the write version.
func AppendLogHeader(buf []byte) []byte {
	buf = append(buf, LogMagic...)
	return binary.LittleEndian.AppendUint16(buf, LogVersion)
}

// AppendFrames appends one frame per record.
func AppendFrames(buf []byte, frs []FlushRecord) []byte {
	for _, fr := range frs {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
		buf = appendRecord(buf, fr)
		sealFrame(buf[start:])
	}
	return buf
}

// sealFrame fills in the header of the frame at the front of b, whose
// payload runs to the end of b.
func sealFrame(b []byte) {
	payload := b[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, logCRC))
}

// CheckFrame validates the frame at the front of b — its length within
// b, its checksum — and returns the payload.
func CheckFrame(b []byte) ([]byte, bool) {
	if len(b) < FrameHeaderSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-FrameHeaderSize) {
		return nil, false
	}
	payload := b[FrameHeaderSize : FrameHeaderSize+int(n)]
	if crc32.Checksum(payload, logCRC) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, false
	}
	return payload, true
}

// AppendFrameIndex appends the frame index over frames starting at the
// given offsets.
func AppendFrameIndex(buf []byte, offsets []uint32) []byte {
	le := binary.LittleEndian
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, frameIndexMarker)
	for _, off := range offsets {
		buf = le.AppendUint32(buf, off)
	}
	buf = le.AppendUint32(buf, uint32(len(offsets)))
	buf = append(buf, frameIndexMagic...)
	sealFrame(buf[start:])
	return buf
}

// IsFrameIndex reports whether a frame payload is the frame index rather
// than a record.
func IsFrameIndex(payload []byte) bool {
	return len(payload) > 0 && payload[0] == frameIndexMarker
}

// DecodeFrameIndex parses a frame index payload into its offsets.
func DecodeFrameIndex(payload []byte) ([]uint32, bool) {
	if !IsFrameIndex(payload) || len(payload) < 1+8 || string(payload[len(payload)-4:]) != frameIndexMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(payload[len(payload)-8:])
	if uint64(len(payload)) != 1+8+4*uint64(n) {
		return nil, false
	}
	offsets := make([]uint32, n)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(payload[1+4*i:])
	}
	return offsets, true
}

// LogRef addresses one record frame of the log: file Seq, frame ordinal
// Ord.
type LogRef struct{ Seq, Ord uint32 }

// AppendReferences appends one reference frame listing refs, which must
// be sorted by file seq, then ordinal, without repeats.
func AppendReferences(buf []byte, refs []LogRef) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendReferencePayload(buf, refs)
	sealFrame(buf[start:])
	return buf
}

// appendReferencePayload appends a reference frame's payload.
func appendReferencePayload(buf []byte, refs []LogRef) []byte {
	buf = append(buf, referenceMarker)
	groups := 0
	for i := range refs {
		if i == 0 || refs[i].Seq != refs[i-1].Seq {
			groups++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(groups))
	var seq uint32
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].Seq == refs[i].Seq {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(refs[i].Seq-seq))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		var ord uint32
		for _, r := range refs[i:j] {
			buf = binary.AppendUvarint(buf, uint64(r.Ord-ord))
			ord = r.Ord
		}
		seq, i = refs[i].Seq, j
	}
	return buf
}

// IsReferences reports whether a frame payload is a reference frame.
func IsReferences(payload []byte) bool {
	return len(payload) > 0 && payload[0] == referenceMarker
}

// DecodeReferences parses the payload of a reference frame in log file
// own, refusing anything but the canonical encoding. The result is
// allocated once, its length counted first, so a hostile count costs
// nothing.
func DecodeReferences(payload []byte, own uint32) ([]LogRef, bool) {
	n, ok := walkReferences(payload, own, nil)
	if !ok {
		return nil, false
	}
	refs := make([]LogRef, 0, n)
	walkReferences(payload, own, func(r LogRef) { refs = append(refs, r) })
	return refs, true
}

// walkReferences validates a reference frame's payload, handing each
// reference to fn when it is not nil, and counts them.
func walkReferences(payload []byte, own uint32, fn func(LogRef)) (int, bool) {
	if !IsReferences(payload) {
		return 0, false
	}
	pos := 1
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		// Minimal: a continuation byte never ends a varint with zero.
		if n <= 0 || (n > 1 && payload[pos+n-1] == 0) || v > math.MaxUint32 {
			return 0, false
		}
		pos += n
		return v, true
	}
	groups, ok := next()
	if !ok || groups == 0 {
		return 0, false
	}
	count := 0
	var seq uint64
	for g := uint64(0); g < groups; g++ {
		d, ok := next()
		if !ok || d == 0 {
			return 0, false
		}
		if seq += d; seq >= uint64(own) {
			return 0, false
		}
		n, ok := next()
		if !ok || n == 0 {
			return 0, false
		}
		var ord uint64
		for i := uint64(0); i < n; i++ {
			d, ok := next()
			if !ok || (i > 0 && d == 0) {
				return 0, false
			}
			if ord += d; ord > math.MaxUint32 {
				return 0, false
			}
			if fn != nil {
				fn(LogRef{Seq: uint32(seq), Ord: uint32(ord)})
			}
			count++
		}
	}
	return count, pos == len(payload)
}

// LogReader reads single record frames of a sealed log file by ordinal,
// through its frame index: how replay follows a reference frame.
type LogReader struct{ b *block }

// OpenLogReader opens the sealed log file at path.
func OpenLogReader(path string) (*LogReader, error) {
	b, err := openBlock(path)
	if err != nil {
		return nil, err
	}
	if !b.log {
		b.release()
		return nil, fmt.Errorf("disk: %s is not a log file: %w", filepath.Base(path), ErrCorrupt)
	}
	return &LogReader{b: b}, nil
}

// Frames is the number of record frames the file holds.
func (r *LogReader) Frames() uint32 { return r.b.count() }

// Read returns the record framed at ord and its frame's size, header
// included.
func (r *LogReader) Read(ord uint32) (FlushRecord, int64, error) {
	rec, err := r.b.readPayload(ord)
	if err != nil {
		return FlushRecord{}, 0, err
	}
	fr, _, err := decodeRecord(rec)
	return fr, FrameHeaderSize + int64(len(rec)), err
}

// Close releases the file.
func (r *LogReader) Close() { r.b.release() }

// openLogBlock reads back a sealed log file's frame index as a block:
// ordinal i is frame i, its record the frame's payload. A file without
// a valid index is not sealed, and no directory may name it. openBlock
// has checked the header; the caller owns f.
func openLogBlock(path string, f *os.File, size int64) (*block, error) {
	le := binary.LittleEndian
	if size < LogHeaderSize+FrameHeaderSize+1+8 {
		return nil, fmt.Errorf("log file not sealed: %w", ErrCorrupt)
	}
	tail := make([]byte, 8)
	if _, err := f.ReadAt(tail, size-8); err != nil {
		return nil, err
	}
	if string(tail[4:]) != frameIndexMagic {
		return nil, fmt.Errorf("log file not sealed: %w", ErrCorrupt)
	}
	frameLen := FrameHeaderSize + 1 + 8 + 4*int64(le.Uint32(tail))
	at := size - frameLen
	if at < LogHeaderSize {
		return nil, ErrCorrupt
	}
	frame := make([]byte, frameLen)
	if _, err := f.ReadAt(frame, at); err != nil {
		return nil, err
	}
	payload, ok := CheckFrame(frame)
	if !ok || len(payload) != len(frame)-FrameHeaderSize {
		return nil, ErrCorrupt
	}
	starts, ok := DecodeFrameIndex(payload)
	if !ok {
		return nil, ErrCorrupt
	}
	// A block's offsets are where each record starts: past its frame
	// header.
	offsets := make([]uint64, len(starts))
	prev := int64(LogHeaderSize)
	for i, s := range starts {
		if int64(s) < prev || int64(s)+FrameHeaderSize > at {
			return nil, ErrCorrupt
		}
		offsets[i] = uint64(s) + FrameHeaderSize
		prev = int64(s) + FrameHeaderSize
	}
	return newBlock(&block{path: path, f: f, log: true, offsets: offsets, end: uint64(at), size: size}), nil
}
