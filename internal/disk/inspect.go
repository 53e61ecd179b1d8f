package disk

import (
	"fmt"
	"os"
	"path/filepath"

	"kflushing/internal/types"
)

// SegmentInfo describes one on-disk segment for tooling.
type SegmentInfo struct {
	// Path is the file name (not the full path).
	Path string
	// Version is the segment format version (1 = pre-Bloom, 2 = Bloom).
	Version int
	// Records is the number of stored records.
	Records int
	// Keys is the number of distinct directory keys.
	Keys int
	// Postings is the total directory posting count.
	Postings int
	// MaxScore is the best ranking score in the segment.
	MaxScore float64
	// Bytes is the file size.
	Bytes int64
	// BloomBytes is the serialized Bloom filter size; 0 for v1.
	BloomBytes int
}

// Inspect summarizes every segment under dir without constructing a
// Tier — the admin tool's view. Attribute-agnostic: it reads the
// directory as opaque keys.
func Inspect(dir string) ([]SegmentInfo, error) {
	segPaths, lvlPaths, err := segmentGlobs(dir)
	if err != nil {
		return nil, err
	}
	paths := append(segPaths, lvlPaths...)
	sortBySeqOrder(paths)
	infos := make([]SegmentInfo, 0, len(paths))
	for _, p := range paths {
		s, err := openSegment(p)
		if err != nil {
			return nil, fmt.Errorf("disk: inspect %s: %w", filepath.Base(p), err)
		}
		postings := 0
		for _, ords := range s.dir {
			postings += len(ords)
		}
		st, err := s.f.Stat()
		size := int64(0)
		if err == nil {
			size = st.Size()
		}
		bloomBytes := 0
		if s.bloom != nil {
			bloomBytes = s.bloom.encodedSize()
		}
		infos = append(infos, SegmentInfo{
			Path:       filepath.Base(p),
			Version:    int(s.version),
			Records:    int(s.count),
			Keys:       len(s.dir),
			Postings:   postings,
			MaxScore:   s.maxScore,
			Bytes:      size,
			BloomBytes: bloomBytes,
		})
		s.release()
	}
	return infos, nil
}

// DumpSegment streams every record of one segment file to fn in stored
// (ranked) order.
func DumpSegment(path string, fn func(FlushRecord) error) error {
	s, err := openSegment(path)
	if err != nil {
		return err
	}
	defer s.release()
	for ord := uint32(0); ord < s.count; ord++ {
		fr, err := s.readRecord(ord)
		if err != nil {
			return fmt.Errorf("disk: dump %s ordinal %d: %w", filepath.Base(path), ord, err)
		}
		if err := fn(fr); err != nil {
			return err
		}
	}
	return nil
}

// Verify opens every segment under dir and reads every record and
// directory entry, reporting totals. It fails on the first corruption.
func Verify(dir string) (segments, records int, err error) {
	infos, err := Inspect(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, info := range infos {
		if err := DumpSegment(filepath.Join(dir, info.Path), func(FlushRecord) error { return nil }); err != nil {
			return segments, records, err
		}
		segments++
		records += info.Records
	}
	return segments, records, nil
}

// CompactDir merges every segment under dir into one, outside any
// running system: it opens dir as a tier that does not compact on its
// own and runs CompactAll, so offline and online compaction commit
// through the same manifest protocol. Attribute-agnostic — merges carry
// directories over and never extract keys — so the key type is
// immaterial. The directory must not be in use by a live system.
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
