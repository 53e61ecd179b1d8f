package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/gen"
	"kflushing/internal/types"
)

// TestRecordFileBytesPerRecord pins the bytes a record file takes per
// record on benchmark-shaped microblogs stamped as a benchmark pass
// stamps them — IDs one apart and past 16 384, as a pass of a few
// hundred thousand records has them, timestamps wall-clock µs since the
// epoch, the generator's 166 µs apart: a
// sealed log file written in 16-record batches and a 5 000-record block,
// everything in the file counted. Each must also code its records at
// least 7 B below absolute coding (flags, uvarint ID, varint timestamp,
// as version 5 wrote them): relative IDs and timestamps are what the
// version 6 pages save.
func TestRecordFileBytesPerRecord(t *testing.T) {
	const epochUS, firstID = 1_760_000_000_000_000, 200_001
	g := gen.New(gen.DefaultConfig())
	frs := make([]disk.FlushRecord, 5000)
	var absolute int64 // the records' bytes, every one absolute
	for i := range frs {
		mb := g.Next()
		mb.ID, mb.Timestamp = types.ID(firstID+i), mb.Timestamp+epochUS
		frs[i] = disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)}
		absolute += absoluteLen(frs[i])
	}
	// check measures the file at path, of the given pages: its bytes per
	// record, at most limit, and its records' bytes per record, at least
	// 7 below absolute coding.
	check := func(what, path string, pages int, limit float64) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		index := disk.PageIndex{Off: make([]uint64, pages), First: make([]uint32, pages)}
		framing := int64(disk.HeaderSize + disk.PageHeaderSize*pages + len(disk.AppendPageIndex(nil, &index)))
		n := float64(len(frs))
		perRecord, saved := float64(st.Size())/n, float64(absolute-(st.Size()-framing))/n
		t.Logf("%s: %.2f B per record in %d pages, %.2f B below absolute coding", what, perRecord, pages, saved)
		if perRecord > limit {
			t.Errorf("%s takes %.2f B per record, want at most %.1f", what, perRecord, limit)
		}
		if saved < 7 {
			t.Errorf("%s codes its records %.2f B below absolute coding, want at least 7", what, saved)
		}
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frs); i += 16 {
		if err := l.AppendBatch(frs[i:min(i+16, len(frs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := Inspect(dir)
	if err != nil || len(files) != 1 || files[0].Records != len(frs) {
		t.Fatalf("log files %+v, %v", files, err)
	}
	check("a sealed log file written in 16-record batches", filepath.Join(dir, files[0].Name), files[0].Pages, 130.1)

	tierDir := t.TempDir()
	tier, err := disk.Open(disk.Config[string]{
		Dir:         tierDir,
		KeysOf:      func(m *types.Microblog) []string { return m.Keywords },
		Encode:      func(s string) string { return s },
		MaxSegments: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if err := tier.Flush(frs); err != nil {
		t.Fatal(err)
	}
	infos, err := disk.Inspect(tierDir)
	if err != nil || len(infos) != 1 || len(infos[0].Blocks) != 1 {
		t.Fatalf("segments %+v, %v", infos, err)
	}
	blk := infos[0].Blocks[0]
	check("a 5000-record block", filepath.Join(tierDir, blk.Name), blk.Pages, 129.2)
}

// absoluteLen is the length of fr's absolute encoding. disk.EncodeRecord
// codes a record as a page's first, relative to (0, 0): its timestamp
// delta is the timestamp's own varint, and its ID delta the zigzag varint
// of the ID, where absolute coding has the ID's uvarint.
func absoluteLen(fr disk.FlushRecord) int64 {
	id := uint64(fr.MB.ID)
	zigzag, plain := binary.AppendUvarint(nil, 2*id), binary.AppendUvarint(nil, id)
	return int64(len(disk.EncodeRecord(nil, fr)) - len(zigzag) + len(plain))
}
