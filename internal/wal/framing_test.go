package wal

import (
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/gen"
	"kflushing/internal/types"
)

// TestRecordFileBytesPerRecord pins the framing a record file costs
// beyond its records' own encodings, per record, on benchmark-shaped
// microblogs: a sealed log file written in 16-record batches at most
// 1.5 B (one page header and one index entry per batch), a 5 000-record
// block at most 1 B (one page header and one index entry per 4 KiB of
// records). A frame and an index slot per record cost 12 B, a u32
// offset per block record 4 B.
func TestRecordFileBytesPerRecord(t *testing.T) {
	g := gen.New(gen.DefaultConfig())
	frs := make([]disk.FlushRecord, 5000)
	var recBytes int64
	for i := range frs {
		mb := g.Next()
		frs[i] = disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)}
		recBytes += int64(len(disk.EncodeRecord(nil, frs[i])))
	}
	framing := func(path string) float64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Size()-recBytes) / float64(len(frs))
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
	if got := framing(filepath.Join(dir, disk.LogName(1))); got > 1.5 {
		t.Errorf("a sealed log file written in 16-record batches frames a record with %.2f B, want at most 1.5", got)
	} else {
		t.Logf("log file: %.2f B of framing per record, %d B records on average", got, recBytes/int64(len(frs)))
	}

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
	blocks, err := filepath.Glob(filepath.Join(tierDir, "blk-*.kfs"))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("blocks %v, %v", blocks, err)
	}
	if got := framing(blocks[0]); got > 1 {
		t.Errorf("a 5000-record block frames a record with %.2f B, want at most 1", got)
	} else {
		t.Logf("block: %.2f B of framing per record", got)
	}
}
