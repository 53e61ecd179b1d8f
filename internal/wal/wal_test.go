package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/types"
)

func fr(id uint64, kws ...string) disk.FlushRecord {
	return disk.FlushRecord{
		MB: &types.Microblog{
			ID:        types.ID(id),
			Timestamp: types.Timestamp(id),
			Keywords:  kws,
			Text:      "payload",
		},
		Score: float64(id),
	}
}

func replayAll(t *testing.T, l *Log) []disk.FlushRecord {
	t.Helper()
	var out []disk.FlushRecord
	if err := l.Replay(func(r disk.FlushRecord) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := l.Append(fr(i, "a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := replayAll(t, re)
	if len(recs) != 100 {
		t.Fatalf("replayed %d, want 100", len(recs))
	}
	for i, r := range recs {
		if uint64(r.MB.ID) != uint64(i+1) || r.MB.Text != "payload" || len(r.MB.Keywords) != 2 {
			t.Fatalf("record %d corrupted: %+v", i, r.MB)
		}
	}
}

func TestRotationBySize(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if err := l.Append(fr(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if len(files) < 3 {
		t.Fatalf("expected rotation, got %d files", len(files))
	}
	re, _ := Open(dir, Options{})
	defer re.Close()
	if got := len(replayAll(t, re)); got != 50 {
		t.Fatalf("replayed %d across rotated files, want 50", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(fr(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-write: the file was never sealed, and its
	// last frame is cut short.
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	newest := files[len(files)-1]
	b, _ := os.ReadFile(newest)
	b = stripIndex(t, b)
	if err := os.WriteFile(newest, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := replayAll(t, re)
	if len(recs) != 9 {
		t.Fatalf("replayed %d after torn tail, want 9", len(recs))
	}
}

func TestCorruptMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 30; i++ {
		if err := l.Append(fr(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if len(files) < 3 {
		t.Skip("not enough rotation for a middle file")
	}
	// Flip a payload byte in the FIRST file: must be reported.
	b, _ := os.ReadFile(files[0])
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	err = re.Replay(func(disk.FlushRecord) error { return nil })
	if err == nil {
		t.Fatal("corrupt middle file not detected")
	}
}

// stripIndex returns a sealed log file's image without its frame index:
// what the file held before it was sealed.
func stripIndex(t *testing.T, b []byte) []byte {
	t.Helper()
	for pos := headerSize; pos < len(b); {
		payload, ok := disk.CheckFrame(b[pos:])
		if !ok {
			t.Fatalf("frame at %d does not parse", pos)
		}
		if disk.IsFrameIndex(payload) {
			return b[:pos]
		}
		pos += disk.FrameHeaderSize + len(payload)
	}
	t.Fatal("file holds no frame index")
	return nil
}

// TestSealWritesFrameIndex: a sealed file ends in a frame index over
// its frames, the frames are stamped with their ordinals, and the file
// opens as a record block of the disk tier.
func TestSealWritesFrameIndex(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frs := appendN(t, l, 1, 5)
	for i, f := range frs {
		if f.LogSeq != 1 || f.LogOrd != uint32(i) {
			t.Fatalf("frame %d stamped file %d ordinal %d", i, f.LogSeq, f.LogOrd)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil { // nothing framed since: no new file
		t.Fatal(err)
	}
	if st := l.Stats(); st.Files != 2 {
		t.Fatalf("%d files after two seals, want the sealed one and the active one", st.Files)
	}
	checkStatsMatchDir(t, l, dir)
	b, err := os.ReadFile(filepath.Join(dir, disk.LogName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stripIndex(t, b)); got >= len(b) {
		t.Fatalf("sealed file of %d bytes has no index", len(b))
	}
	var ids []uint64
	if err := disk.DumpSegment(filepath.Join(dir, disk.LogName(1)), func(r disk.FlushRecord) error {
		ids = append(ids, uint64(r.MB.ID))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[1 2 3 4 5]" {
		t.Fatalf("sealed file reads back %v", ids)
	}
}

// TestReplayOrder pins what replay guarantees about order, which is not
// arrival order: files in sequence order, frames in append order within
// a file, a relocated record from its newest frame — after records that
// arrived later — and drained files not at all.
func TestReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	frs := appendUntilFile(t, l, 4)
	// Record 1 survives in memory; the rest of file 1 is flushed away.
	inFirst := 0
	for _, f := range frs {
		if f.LogSeq == 1 {
			inFirst++
		}
	}
	l.Release(1, inFirst-1)
	survivor := []disk.FlushRecord{{MB: frs[0].MB, Score: frs[0].Score}}
	if err := l.Relocate(1, survivor); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// File 2 is drained: the tier holds its records.
	re, err := Open(dir, Options{Drained: func(seq uint32) bool { return seq == 2 }})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := replayAll(t, re)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.LogSeq > b.LogSeq || a.LogSeq == b.LogSeq && a.LogOrd+1 != b.LogOrd {
			t.Fatalf("frame %d/%d delivered before %d/%d", a.LogSeq, a.LogOrd, b.LogSeq, b.LogOrd)
		}
	}
	var ids []uint64
	for _, r := range got {
		if r.LogSeq == 2 || r.LogSeq == 1 {
			t.Fatalf("record %d delivered from file %d, which is drained or relocated away", r.MB.ID, r.LogSeq)
		}
		ids = append(ids, uint64(r.MB.ID))
	}
	if len(ids) == 0 || ids[len(ids)-1] != 1 {
		t.Fatalf("replay delivered %v; the relocated record 1 comes last, after later arrivals", ids)
	}
}

// TestMigrateLegacyLog: a log directory in the format used before the
// log moved into the tier directory — a snapshot and sealed files —
// is re-framed into one sealed file of the new log and then removed;
// its records replay with every field intact.
func TestMigrateLegacyLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "wal")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := []disk.FlushRecord{fr(1, "a"), fr(2, "b")}
	old := []disk.FlushRecord{fr(3, "c"), fr(4, "d")}
	old[1].Score = 0.5
	v2 := func(recs []disk.FlushRecord) []byte {
		return disk.AppendFrames(binary.LittleEndian.AppendUint16([]byte(disk.LogMagic), disk.LogVersionV2), recs)
	}
	if err := os.WriteFile(filepath.Join(legacy, snapshotName), v1File(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, disk.LogName(7)), v2(old), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{LegacyDir: legacy})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy log directory still there after migration: %v", err)
	}
	want := append(append([]disk.FlushRecord(nil), snap...), old...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.MB.ID != want[i].MB.ID || r.Score != want[i].Score || r.MB.Keywords[0] != want[i].MB.Keywords[0] || r.LogSeq != 1 {
			t.Fatalf("record %d replayed as %+v score %v from file %d", i, r.MB, r.Score, r.LogSeq)
		}
	}
	if v := fileVersionOf(t, filepath.Join(dir, disk.LogName(1))); v != fileVersion {
		t.Fatalf("migrated file is version %d", v)
	}
}

func TestEmptyDirReplaysNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := len(replayAll(t, l)); got != 0 {
		t.Fatalf("replayed %d from empty log", got)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(fr(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
}
