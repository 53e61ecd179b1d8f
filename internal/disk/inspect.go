package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kflushing/internal/types"
)

// SegmentInfo describes one on-disk segment — a directory and the
// record blocks it names — for tooling.
type SegmentInfo struct {
	// Path is the directory's file name (not the full path).
	Path string
	// Version is the directory format version.
	Version int
	// Records is the number of live records: stored in a named block and
	// posted from it.
	Records int
	// Keys is the number of distinct directory keys.
	Keys int
	// Postings is the total directory posting count.
	Postings int
	// MaxScore is the best ranking score in the segment.
	MaxScore float64
	// Bytes is the directory file's size.
	Bytes int64
	// BloomBytes is the serialized Bloom filter size.
	BloomBytes int
	// Blocks describes the record block files the directory addresses,
	// in table order (oldest first).
	Blocks []BlockInfo
	// BlockBytes is the total size of those files.
	BlockBytes int64
	// ShadowedBytes is the size of records in those blocks that a newer
	// block also holds and that are therefore posted from there.
	ShadowedBytes int64
}

// BlockInfo describes one record file a directory names: a record block,
// or a sealed log file.
type BlockInfo struct {
	// Name is the file's name.
	Name string
	// Log marks a log file (wal-*.kfw) rather than a record block.
	Log bool
	// Version is the file's format version.
	Version int
	// Records is the number of records stored (frames, for a log file),
	// posted or not.
	Records int
	// Bytes is the size of the records and the offsets table or frame
	// index, frame headers included.
	Bytes int64
	// Drained marks a log file the manifest lists drained: no record in
	// memory claims it, and the log no longer replays it.
	Drained bool
}

// openDir opens every segment under dir without changing anything on
// disk. The caller releases the segments.
func openDir(dir string) (segs []*segment, err error) {
	segPaths, lvlPaths, err := segmentGlobs(dir)
	if err != nil {
		return nil, err
	}
	paths := append(segPaths, lvlPaths...)
	sortBySeqOrder(paths)
	bs := newBlockSet(NewLogSet(LogHome(dir)))
	defer bs.release()
	for _, p := range paths {
		s, err := openSegment(p, bs)
		if err != nil {
			releaseAll(segs)
			return nil, fmt.Errorf("disk: inspect %s: %w", filepath.Base(p), err)
		}
		segs = append(segs, s)
	}
	return segs, nil
}

func releaseAll(segs []*segment) {
	for _, s := range segs {
		s.release()
	}
}

// Inspect summarizes every segment under dir without constructing a
// Tier — the admin tool's view. Attribute-agnostic: it reads the
// directory as opaque keys.
func Inspect(dir string) ([]SegmentInfo, error) {
	segs, err := openDir(dir)
	if err != nil {
		return nil, err
	}
	defer releaseAll(segs)
	m, _ := ReadManifest(LogHome(dir)) // a missing or corrupt manifest marks nothing drained
	drained := make(map[string]bool, len(m.Drained))
	for _, name := range m.Drained {
		drained[name] = true
	}
	infos := make([]SegmentInfo, 0, len(segs))
	for _, s := range segs {
		info := SegmentInfo{
			Path:          s.name(),
			Version:       segVersion,
			Records:       int(s.count),
			Keys:          len(s.keys),
			Postings:      len(s.posts),
			MaxScore:      s.maxScore,
			Bytes:         s.size,
			BloomBytes:    s.bloom.encodedSize(),
			BlockBytes:    s.dataBytes() - s.size,
			ShadowedBytes: s.shadowed,
		}
		for _, b := range s.blocks {
			bi := BlockInfo{
				Name:    b.name(),
				Log:     b.log,
				Version: blkVersion,
				Records: int(b.count()),
				Bytes:   int64(b.end) - blkHeaderSize + b.width*int64(b.count()),
				Drained: drained[b.name()],
			}
			if b.log {
				bi.Version, bi.Bytes = LogVersion, b.size-LogHeaderSize
			}
			info.Blocks = append(info.Blocks, bi)
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// DumpSegment streams the records of one file to fn: every record of a
// blk-* block in stored (ranked) order, every frame of a sealed log file
// in append order, or the live records of a directory — those it posts —
// block by block in table order.
func DumpSegment(path string, fn func(FlushRecord) error) error {
	emit := func(b *block, posted func(ord uint32) bool) error {
		return b.scan(nil, func(ord uint32, rec []byte) error {
			if !posted(ord) {
				return nil
			}
			fr, _, err := decodeRecord(rec)
			if err != nil {
				return fmt.Errorf("disk: dump %s ordinal %d: %w", b.name(), ord, err)
			}
			return fn(fr)
		})
	}
	if name := filepath.Base(path); strings.HasPrefix(name, "blk-") || strings.HasPrefix(name, "wal-") {
		b, err := openBlock(path)
		if err != nil {
			return err
		}
		defer b.release()
		return emit(b, func(uint32) bool { return true })
	}
	bs := newBlockSet(NewLogSet(LogHome(filepath.Dir(path))))
	defer bs.release()
	s, err := openSegment(path, bs)
	if err != nil {
		return err
	}
	defer s.release()
	posted := make([]bool, s.base[len(s.blocks)])
	for _, p := range s.posts {
		posted[p] = true
	}
	for i, b := range s.blocks {
		base := s.base[i]
		if err := emit(b, func(ord uint32) bool { return posted[base+ord] }); err != nil {
			return err
		}
	}
	return nil
}

// Verify opens every segment under dir, decodes every record of every
// block it names, and checks every posting resolves to one of them and
// every per-key list is strictly rank-ordered (score descending, then ID
// descending — which also rules out a record posted twice under one
// key). It reports totals and fails on the first corruption.
func Verify(dir string) (segments, records int, err error) {
	segs, err := openDir(dir)
	if err != nil {
		return 0, 0, err
	}
	defer releaseAll(segs)
	for _, s := range segs {
		if err := s.verify(); err != nil {
			return segments, records, fmt.Errorf("disk: verify %s: %w", s.name(), err)
		}
		segments++
		records += int(s.count)
	}
	return segments, records, nil
}

func (s *segment) verify() error {
	total := s.base[len(s.blocks)]
	ids := make([]uint64, total)
	scores := make([]float64, total)
	for i, b := range s.blocks {
		base := s.base[i]
		err := b.scan(nil, func(ord uint32, rec []byte) error {
			fr, n, err := decodeRecord(rec)
			if err != nil || n != len(rec) {
				return fmt.Errorf("block %s ordinal %d: %w", b.name(), ord, ErrCorrupt)
			}
			ids[base+ord], scores[base+ord] = uint64(fr.MB.ID), fr.Score
			return nil
		})
		if err != nil {
			return err
		}
	}
	posted := make(map[uint32]struct{}, s.count)
	for i, key := range s.keys {
		list := s.posts[s.start[i]:s.start[i+1]]
		for j, p := range list {
			posted[p] = struct{}{}
			if j == 0 {
				continue
			}
			q := list[j-1]
			if scores[q] < scores[p] || (scores[q] == scores[p] && ids[q] <= ids[p]) {
				return fmt.Errorf("key %q: posting %d outranks posting %d before it: %w", key, p, q, ErrCorrupt)
			}
		}
	}
	if len(posted) > int(s.count) {
		return fmt.Errorf("%d records posted, header says %d live: %w", len(posted), s.count, ErrCorrupt)
	}
	return nil
}

// CompactDir merges every segment under dir into one, outside any
// running system: it opens dir as a tier that does not compact on its
// own and runs CompactAll, so offline and online compaction commit
// through the same manifest protocol. Attribute-agnostic — merges carry
// directories over and never extract keys — so the key type is
// immaterial. Only directory files are rewritten; record blocks stay as
// they are. The directory must not be in use by a live system.
func CompactDir(dir string) error {
	// Open would create a missing directory; a mistyped path must fail.
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	t, err := Open(Config[string]{
		Dir:         dir,
		KeysOf:      func(*types.Microblog) []string { return nil },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
		CacheBytes:  -1,
		Logs:        NewLogSet(LogHome(dir)),
	})
	if err != nil {
		return err
	}
	err = t.CompactAll()
	if err == nil {
		// Commit once more so the manifest left behind stops listing the
		// inputs just unlinked as retired.
		t.manifestMu.Lock()
		err = t.commitManifest()
		t.manifestMu.Unlock()
	}
	if cerr := t.Close(); err == nil {
		err = cerr // a compaction error is the one to surface
	}
	return err
}
