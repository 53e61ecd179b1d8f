package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// stripIndex returns a sealed log file's image without its page index:
// what the file held before it was sealed.
func stripIndex(t testing.TB, b []byte) []byte {
	t.Helper()
	for pos := headerSize; pos < len(b); {
		payload, ok := disk.CheckPage(b[pos:])
		if !ok {
			t.Fatalf("page at %d does not parse", pos)
		}
		if disk.IsPageIndex(payload) {
			return b[:pos]
		}
		pos += disk.PageHeaderSize + len(payload)
	}
	t.Fatal("file holds no page index")
	return nil
}

// TestSealWritesFrameIndex: a sealed file ends in a page index over its
// pages, the records are stamped with their ordinals, and the file opens
// as a record file of the disk tier.
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
// a file, a referenced record where the reference frame listing it
// stands — after records that arrived later — and drained files not at
// all, but for the frames a reference lists.
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
	l.Release(1, 1, inFirst-1)
	if _, err := l.Reference(1, frs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// File 1 drained with the reference; file 2 is drained too: the tier
	// holds its records.
	re, err := Open(dir, Options{Logs: drainedSet(dir, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := replayAll(t, re)
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		framed := a.LogSeq == a.ReplaySeq && b.LogSeq == b.ReplaySeq
		if a.ReplaySeq > b.ReplaySeq || a.ReplaySeq == b.ReplaySeq && framed && a.LogOrd+1 != b.LogOrd {
			t.Fatalf("frame %d/%d delivered before %d/%d", a.LogSeq, a.LogOrd, b.LogSeq, b.LogOrd)
		}
	}
	var ids []uint64
	for _, r := range got {
		if r.ReplaySeq <= 2 || r.LogSeq == 2 || r.LogSeq == 1 && r.MB.ID != 1 {
			t.Fatalf("record %d delivered by file %d from file %d: drained", r.MB.ID, r.ReplaySeq, r.LogSeq)
		}
		ids = append(ids, uint64(r.MB.ID))
	}
	if len(ids) == 0 || ids[len(ids)-1] != 1 {
		t.Fatalf("replay delivered %v; the referenced record 1 comes last, after later arrivals", ids)
	}
	if last := got[len(got)-1]; last.LogSeq != 1 || last.LogOrd != 0 {
		t.Fatalf("record 1 delivered from file %d frame %d, want its own frame 1/0", last.LogSeq, last.LogOrd)
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

// TestReplayRefusesUnknownVersion: a file of an older version is
// disk.ErrNeedsUpgrade naming the commit whose upgrade converts it —
// 9dc2163 for version 4 — one of an unknown version ErrCorrupt, in the
// crash-tail file too, and neither is decoded.
func TestReplayRefusesUnknownVersion(t *testing.T) {
	for _, version := range []uint16{0, 1, 2, 3, 4, 7, 0xFFFF} {
		want := ErrCorrupt
		if version >= 1 && version <= 4 {
			want = disk.ErrNeedsUpgrade
		}
		dir := t.TempDir()
		img := binary.LittleEndian.AppendUint16([]byte(disk.LogMagic), version)
		img = disk.AppendRecordPages(img, []disk.FlushRecord{fr(1, "k")}, &disk.PageIndex{})
		path := filepath.Join(dir, "wal-00000001.kfw")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, last := range []bool{false, true} {
			p, err := parseFile(path, last)
			if n := len(p.recs); !errors.Is(err, want) || n != 0 {
				t.Fatalf("version %d (last=%v): %d records, err %v; want %v and none", version, last, n, err, want)
			}
			if named := strings.Contains(fmt.Sprint(err), "ff40e7c"); named != (version == 1 || version == 2) {
				t.Fatalf("version %d: %v names commit ff40e7c: %v", version, err, named)
			}
			if named := strings.Contains(fmt.Sprint(err), "9dc2163"); named != (version == 4) {
				t.Fatalf("version %d: %v names commit 9dc2163: %v", version, err, named)
			}
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Replay(func(disk.FlushRecord) error { return nil }); !errors.Is(err, want) {
			t.Fatalf("version %d: Replay returned %v, want %v", version, err, want)
		}
		l.Close()
	}
}

// TestInspectToleratesCrashTail: Inspect reads a log as Replay does. A
// process killed during recovery leaves the file it was replaying torn —
// its last page's checksum bad — and, after it, the header-only file
// Open had just created; the torn file is the crash tail although it is
// not the last file.
func TestInspectToleratesCrashTail(t *testing.T) {
	dir := t.TempDir()
	img := disk.AppendLogHeader(nil)
	for _, r := range []disk.FlushRecord{fr(1), fr(2), fr(3), fr(4), fr(5)} { // a page each
		img = disk.AppendRecordPages(img, []disk.FlushRecord{r}, &disk.PageIndex{})
	}
	img[len(img)-1] ^= 0xFF // in the last page's payload: its checksum fails
	if err := os.WriteFile(filepath.Join(dir, disk.LogName(1)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, disk.LogName(2)), disk.AppendLogHeader(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := Inspect(dir)
	if err != nil || len(files) != 2 || files[0].Records != 4 || files[1].Records != 0 {
		t.Fatalf("Inspect = %+v, %v; want 4 records and an empty file", files, err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := len(replayAll(t, l)); got != 4 {
		t.Fatalf("replayed %d records, want 4", got)
	}
}
