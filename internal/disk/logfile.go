package disk

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
)

// Log files. The write-ahead log writes these files into the tier's
// directory, and on a durable store they are the tier's record files
// too: a flush writes only a directory whose block table names them
// (tier.go, stageFlush). A log file is a record file (block.go) under
// the magic "KFWL", written a batch at a time: each batch appends record
// pages, and sealing the file appends its page index, which the log
// writes once, when it seals the file, and then fsyncs; a directory
// names only sealed files, so a named file is complete and never grows
// again.
//
// A log file may also hold reference pages, which hand the replay of
// records held in older files to the file holding them (see package
// wal). A reference page's payload is 0xFE | uvarint groups, then per
// group (file seq ascending) uvarint seq delta | uvarint n | n × uvarint
// ordinal delta (ordinals ascending; the first seq and ordinal of a
// group are deltas from 0): it lists (file seq, ordinal) pairs, and
// replay reads each listed record through its file's index, each page
// once. It holds no record, so ordinals do not count it. Its encoding is
// canonical — every group non-empty, every delta past the first
// positive, every varint minimal, every seq below the page's own file —
// so a decoded page re-encodes to the same bytes.
const (
	LogMagic   = "KFWL"
	LogVersion = blkVersion

	referenceMarker = 0xFE
)

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

// LogRef addresses one record of the log: file Seq, ordinal Ord.
type LogRef struct{ Seq, Ord uint32 }

// AppendReferencePage appends one reference page listing refs, which
// must be sorted by file seq, then ordinal, without repeats, and indexes
// it in x at its offset in buf.
func AppendReferencePage(buf []byte, refs []LogRef, x *PageIndex) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendReferencePayload(buf, refs)
	sealPage(buf[start:])
	x.Add(uint64(start), 0)
	return buf
}

// appendReferencePayload appends a reference page's payload.
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

// IsReferences reports whether a page payload is a reference page.
func IsReferences(payload []byte) bool {
	return len(payload) > 0 && payload[0] == referenceMarker
}

// DecodeReferences parses the payload of a reference page in log file
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

// walkReferences validates a reference page's payload, handing each
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

// DecodePage appends the records of a record page's payload to recs: at
// least one, and nothing after the last. On failure recs comes back as
// it was.
func DecodePage(recs []FlushRecord, payload []byte) ([]FlushRecord, error) {
	had, size := len(recs), len(payload)
	for c := (pageCursor{q: payload}); len(c.q) > 0; {
		fr, _, err := c.next()
		if err != nil {
			return recs[:had], err
		}
		recs = append(recs, fr)
	}
	if n := len(recs) - had; n == 0 || n > 1 && size > PageSize {
		return recs[:had], ErrCorrupt
	}
	return recs, nil
}

// LogReader reads records of a sealed log file by ordinal, through its
// page index: how replay follows a reference page.
type LogReader struct{ b *block }

// OpenLogReader opens the sealed log file at path.
func OpenLogReader(path string) (*LogReader, error) {
	if _, ok := ParseLogName(path); !ok {
		return nil, fmt.Errorf("disk: %s is not a log file: %w", filepath.Base(path), ErrCorrupt)
	}
	b, err := openBlock(path)
	if err != nil {
		return nil, err
	}
	return &LogReader{b: b}, nil
}

// Records is the number of records the file holds.
func (r *LogReader) Records() uint32 { return r.b.count() }

// Read hands fn the records at ords, ascending, each with the length of
// its encoding, reading each page that holds one once and checking it.
func (r *LogReader) Read(ords []uint32, fn func(ord uint32, fr FlushRecord, size int) error) error {
	return r.b.readRecords(ords, fn)
}

// Close releases the file.
func (r *LogReader) Close() { r.b.release() }
