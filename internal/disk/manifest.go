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
// finds (see the recovery rules on openLeveled). A manifest of an older
// version is not adopted around: it is ErrNeedsUpgrade.
//
// Manifest file layout (all integers little-endian):
//
//	header : magic "KFMF" | u16 version | u16 reserved | u64 nextSeq |
//	         u64 maxRecordID
//	live   : u32 n, then per entry: u32 level | u16 nameLen | name
//	retired: u32 n, then per entry: u16 nameLen | name
//	drained: u32 n, then per entry: u16 nameLen | name
//	footer : u32 crc32-IEEE of everything above | magic "KFMN"
const (
	manifestName     = "manifest.kfm"
	manifestMagic    = "KFMF"
	manifestEndMagic = "KFMN"
	manifestVersion  = 3
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
	// record is never handed out again.
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
// crash (or FuzzManifestDecode) left on disk. An intact manifest of an
// older version is ErrNeedsUpgrade.
func decodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	const footerSize = 4 + 4
	// Every version starts magic | version and ends with the footer.
	if len(b) < 8+footerSize {
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
	switch version := binary.LittleEndian.Uint16(b[4:]); {
	case version > 0 && version < manifestVersion:
		return m, retired(fmt.Sprintf("%s is version %d", manifestName, version), olderUpgrade)
	case version != manifestVersion:
		return m, fmt.Errorf("%w: unsupported version %d", ErrCorruptManifest, version)
	}
	// Every entry takes at least 2 bytes (6 live), so a hostile count
	// ends its loop at the first truncation, allocating nothing more.
	r := recReader{b: b[:crcPos], pos: 8}
	m.NextSeq, m.MaxRecordID = r.u64(), r.u64()
	for n := r.u32(); n > 0 && !r.bad; n-- {
		level, name := r.u32(), r.str(uint64(r.u16()))
		r.bad = r.bad || level > manifestMaxLevel || len(name) > manifestMaxName
		m.Live = append(m.Live, ManifestEntry{Name: name, Level: int(level)})
	}
	names := func() (out []string) {
		for n := r.u32(); n > 0 && !r.bad; n-- {
			name := r.str(uint64(r.u16()))
			r.bad = r.bad || len(name) > manifestMaxName
			out = append(out, name)
		}
		return out
	}
	m.Retired, m.Drained = names(), names()
	if r.bad || r.pos != crcPos {
		return Manifest{}, fmt.Errorf("%w: truncated entries or trailing bytes", ErrCorruptManifest)
	}
	return m, nil
}

// DecodeManifest parses manifest bytes; exported for fuzzing and
// tooling. It never panics on arbitrary input.
func DecodeManifest(b []byte) (Manifest, error) { return decodeManifest(b) }

// ReadManifest loads and decodes dir's manifest. os.ErrNotExist when no
// manifest file exists; ErrCorruptManifest when the file fails
// validation; ErrNeedsUpgrade when it is of an older version.
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	return decodeManifest(b)
}

// ErrCommitUnsynced marks a manifest commit that took effect without
// being durable: the rename made the new manifest live, then the
// directory fsync failed. Whoever reads the directory now reads the new
// manifest, so the committer keeps the state it describes and every
// file it names, and surfaces the error; unlinking what the commit
// stopped naming waits for a commit that syncs, since a crash may still
// bring the previous manifest back.
var ErrCommitUnsynced = errors.New("disk: manifest committed, directory not synced")

// writeManifest atomically replaces dir's manifest with m: stage at a
// temp path, fsync, rename into place, fsync the directory. A crash at
// any instruction leaves either the old or the new manifest live —
// never a torn one — which is the property the level install and
// compaction commit protocols build on. Each instruction carries a
// failpoint site so the crash matrix can kill the process exactly there.
// An error after the rename wraps ErrCommitUnsynced: the commit stands.
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
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("%w: %w", ErrCommitUnsynced, err)
	}
	return nil
}
