package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"kflushing/internal/failpoint"
)

// The manifest is the leveled tier's commit point: a single small file
// naming every live segment with its level, plus the retired set —
// compaction inputs whose merged replacement is already live but whose
// files may not have been unlinked yet. It is rewritten atomically
// (temp file + fsync + rename + directory fsync), so the live manifest
// is always a complete, CRC-protected snapshot; a crash can only ever
// leave the PREVIOUS manifest plus staged orphans, never a half-written
// one. Torn or bit-rotted manifests are still handled: the decoder
// never panics, and Open falls back to adopting the segment files it
// finds (see the recovery rules on openLeveled).
//
// Manifest file layout (all integers little-endian):
//
//	header : magic "KFMF" | u16 version | u16 reserved | u64 nextSeq |
//	         u64 maxRecordID (version 2; absent in version 1)
//	live   : u32 n, then per entry: u32 level | u16 nameLen | name
//	retired: u32 n, then per entry: u16 nameLen | name
//	drained: u32 n, then per entry: u16 nameLen | name (version 3)
//	footer : u32 crc32-IEEE of everything above | magic "KFMN"
//
// Version 1 manifests (written before the record-ID high-water mark was
// persisted) still decode, with MaxRecordID zero; Open recomputes it
// from the blocks. Version 2 manifests (before the log became the record
// store) decode with no drained log file. The next commit writes
// version 3.
const (
	manifestName      = "manifest.kfm"
	manifestMagic     = "KFMF"
	manifestEndMagic  = "KFMN"
	manifestVersion   = 3
	manifestVersionV2 = 2
	manifestVersionV1 = 1
	// manifestMaxName bounds a decoded entry name; segment names are
	// short ("seg-00000001.kfs"), so anything longer is corruption.
	manifestMaxName = 255
	// manifestMaxLevel bounds a decoded level; the geometric growth
	// makes real level numbers tiny, so a huge one is corruption.
	manifestMaxLevel = 1 << 16
)

// ErrCorruptManifest reports a malformed, truncated, or checksum-failed
// manifest file. Open treats it as absent and falls back to directory
// adoption, so it is survivable — but tooling surfaces it.
var ErrCorruptManifest = errors.New("disk: corrupt manifest")

// ManifestEntry is one live segment in the manifest.
type ManifestEntry struct {
	// Name is the segment file name (no directory).
	Name string
	// Level is the tier level the segment belongs to (0 = freshest).
	Level int
}

// Manifest is the decoded level metadata of a leveled tier.
type Manifest struct {
	// NextSeq is the lowest sequence number the tier may assign next;
	// sequence numbers are never reused across restarts.
	NextSeq uint64
	// MaxRecordID is the highest record ID any segment the tier ever
	// installed holds, committed by the edit that installs the segment:
	// the engine resumes its ID counter past it, so the ID of an evicted
	// record is never handed out again. Zero in a version-1 manifest.
	MaxRecordID uint64
	// Live lists every committed segment with its level.
	Live []ManifestEntry
	// Retired lists compaction inputs superseded by a live merged
	// segment; their files are deleted at the next opportunity and
	// must never be adopted as live data.
	Retired []string
	// Drained lists the log files no memory-resident record claims any
	// more: they are record files of the tier alone, never replayed, and
	// a drained file no live directory names is deleted.
	Drained []string
}

// encodeManifest appends m's binary encoding to buf.
func encodeManifest(buf []byte, m Manifest) []byte {
	var tmp [8]byte
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(tmp[:2], v)
		buf = append(buf, tmp[:2]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	buf = append(buf, manifestMagic...)
	put16(manifestVersion)
	put16(0)
	binary.LittleEndian.PutUint64(tmp[:], m.NextSeq)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:], m.MaxRecordID)
	buf = append(buf, tmp[:8]...)
	put32(uint32(len(m.Live)))
	for _, e := range m.Live {
		put32(uint32(e.Level))
		put16(uint16(len(e.Name)))
		buf = append(buf, e.Name...)
	}
	for _, names := range [][]string{m.Retired, m.Drained} {
		put32(uint32(len(names)))
		for _, name := range names {
			put16(uint16(len(name)))
			buf = append(buf, name...)
		}
	}
	put32(crc32.ChecksumIEEE(buf))
	buf = append(buf, manifestEndMagic...)
	return buf
}

// decodeManifest parses a manifest file's bytes. It is defensive end to
// end — truncations, bit flips, and hostile length fields return
// ErrCorruptManifest, never panic — because Open feeds it whatever a
// crash (or FuzzManifestDecode) left on disk.
func decodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	const headerSizeV1 = 4 + 2 + 2 + 8
	const footerSize = 4 + 4
	if len(b) < headerSizeV1+4+4+footerSize {
		return m, fmt.Errorf("%w: %d bytes is too short", ErrCorruptManifest, len(b))
	}
	if string(b[:4]) != manifestMagic {
		return m, fmt.Errorf("%w: bad magic", ErrCorruptManifest)
	}
	if string(b[len(b)-4:]) != manifestEndMagic {
		return m, fmt.Errorf("%w: bad end magic", ErrCorruptManifest)
	}
	crcPos := len(b) - footerSize
	if got, want := crc32.ChecksumIEEE(b[:crcPos]), binary.LittleEndian.Uint32(b[crcPos:]); got != want {
		return m, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorruptManifest, got, want)
	}
	m.NextSeq = binary.LittleEndian.Uint64(b[8:])
	pos := headerSizeV1
	need := func(n int) bool { return pos+n <= crcPos }
	version := binary.LittleEndian.Uint16(b[4:])
	switch version {
	case manifestVersionV1:
	case manifestVersionV2, manifestVersion:
		if !need(8) {
			return Manifest{}, fmt.Errorf("%w: truncated header", ErrCorruptManifest)
		}
		m.MaxRecordID = binary.LittleEndian.Uint64(b[pos:])
		pos += 8
	default:
		return Manifest{}, fmt.Errorf("%w: unsupported version %d", ErrCorruptManifest, version)
	}
	if !need(4) {
		return Manifest{}, fmt.Errorf("%w: truncated live count", ErrCorruptManifest)
	}
	nLive := int(binary.LittleEndian.Uint32(b[pos:]))
	pos += 4
	// Each live entry takes at least 6 bytes; an nLive that cannot fit
	// is a hostile length field, rejected before any allocation.
	if nLive < 0 || nLive > (crcPos-pos)/6 {
		return Manifest{}, fmt.Errorf("%w: implausible live count %d", ErrCorruptManifest, nLive)
	}
	for i := 0; i < nLive; i++ {
		if !need(6) {
			return Manifest{}, fmt.Errorf("%w: truncated live entry %d", ErrCorruptManifest, i)
		}
		level := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		nameLen := int(binary.LittleEndian.Uint16(b[pos:]))
		pos += 2
		if level > manifestMaxLevel || nameLen > manifestMaxName || !need(nameLen) {
			return Manifest{}, fmt.Errorf("%w: bad live entry %d", ErrCorruptManifest, i)
		}
		m.Live = append(m.Live, ManifestEntry{Name: string(b[pos : pos+nameLen]), Level: level})
		pos += nameLen
	}
	names := func(what string) ([]string, error) {
		if !need(4) {
			return nil, fmt.Errorf("%w: truncated %s count", ErrCorruptManifest, what)
		}
		n := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		if n < 0 || n > (crcPos-pos)/2 {
			return nil, fmt.Errorf("%w: implausible %s count %d", ErrCorruptManifest, what, n)
		}
		var out []string
		for i := 0; i < n; i++ {
			if !need(2) {
				return nil, fmt.Errorf("%w: truncated %s entry %d", ErrCorruptManifest, what, i)
			}
			nameLen := int(binary.LittleEndian.Uint16(b[pos:]))
			pos += 2
			if nameLen > manifestMaxName || !need(nameLen) {
				return nil, fmt.Errorf("%w: bad %s entry %d", ErrCorruptManifest, what, i)
			}
			out = append(out, string(b[pos:pos+nameLen]))
			pos += nameLen
		}
		return out, nil
	}
	var err error
	if m.Retired, err = names("retired"); err != nil {
		return Manifest{}, err
	}
	if version == manifestVersion {
		if m.Drained, err = names("drained"); err != nil {
			return Manifest{}, err
		}
	}
	if pos != crcPos {
		return Manifest{}, fmt.Errorf("%w: %d trailing bytes", ErrCorruptManifest, crcPos-pos)
	}
	return m, nil
}

// DecodeManifest parses manifest bytes; exported for fuzzing and
// tooling. It never panics on arbitrary input.
func DecodeManifest(b []byte) (Manifest, error) { return decodeManifest(b) }

// ReadManifest loads and decodes dir's manifest. os.ErrNotExist when no
// manifest file exists (a directory no tier has opened since PR 6);
// ErrCorruptManifest when the file fails validation.
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	return decodeManifest(b)
}

// writeManifest atomically replaces dir's manifest with m: stage at a
// temp path, fsync, rename into place, fsync the directory. A crash at
// any instruction leaves either the old or the new manifest live —
// never a torn one — which is the property the level install and
// compaction commit protocols build on. Each instruction carries a
// failpoint site so the crash matrix can kill the process exactly there.
func writeManifest(dir string, m Manifest) error {
	buf := encodeManifest(nil, m)
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	staged, fperr := failpoint.EvalWrite(failpoint.DiskManifestWrite, buf)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("disk: create manifest: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			// The write/sync error is the one to surface, not the cleanup's.
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if _, err := f.Write(staged); err != nil {
		return fmt.Errorf("disk: write manifest: %w", err)
	}
	if fperr != nil {
		return fmt.Errorf("disk: write manifest: %w", fperr)
	}
	if err := failpoint.Eval(failpoint.DiskManifestSync); err != nil {
		return fmt.Errorf("disk: sync manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("disk: close manifest: %w", err)
	}
	if err := failpoint.Eval(failpoint.DiskManifestRename); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: rename manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("disk: rename manifest: %w", err)
	}
	ok = true
	return syncDir(dir)
}
