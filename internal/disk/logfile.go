package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Log file layout (all integers little-endian). The write-ahead log
// writes these files into the tier's directory, and on a durable store
// they are the tier's record files too: a flush writes only a directory
// whose block table names them (tier.go, stageFlush).
//
//	header : magic "KFWL" | u16 version
//	frames : per record: u32 payload length | u32 CRC32C of payload
//	         | payload (one record, see appendRecord)
//	index  : once the file is sealed: one frame whose payload is
//	         0xFF | count × u32 frame offset | u32 count | "KFWX"
//
// The frame index is the log file's counterpart of a record block's
// offsets table: the offset of each frame, in append order, so a
// directory addresses a record as (file, frame ordinal) and a search
// reads it with one pread. It is written once, when the log seals the
// file, and then fsynced; a directory names only sealed files, so a
// named file is complete and never grows again. Its marker byte is not a
// valid record flags byte, and its fixed tail lets a reader find it from
// the end of the file.
const (
	LogMagic        = "KFWL"
	LogVersion      = 3
	LogHeaderSize   = 4 + 2
	FrameHeaderSize = 4 + 4

	frameIndexMarker = 0xFF
	frameIndexMagic  = "KFWX"
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
