package wal

import (
	"os"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
)

// appendN appends ids [from, to] one record per batch and returns the
// frames as the log stamped them.
func appendN(t *testing.T, l *Log, from, to uint64) []disk.FlushRecord {
	t.Helper()
	var out []disk.FlushRecord
	for id := from; id <= to; id++ {
		frs := []disk.FlushRecord{fr(id, "k")}
		if err := l.AppendBatch(frs); err != nil {
			t.Fatal(err)
		}
		out = append(out, frs[0])
	}
	return out
}

// appendUntilFile appends ids from 1 up, one record per batch, until a
// frame lands in file seq, and returns the frames as the log stamped
// them: a layout that does not depend on the frame size.
func appendUntilFile(t *testing.T, l *Log, seq uint32) []disk.FlushRecord {
	t.Helper()
	var out []disk.FlushRecord
	for id := uint64(1); len(out) == 0 || out[len(out)-1].LogSeq < seq; id++ {
		out = append(out, appendN(t, l, id, id)...)
	}
	return out
}

func exists(dir string, seq uint32) bool {
	l := &Log{dir: dir}
	_, err := os.Stat(l.path(seq))
	return err == nil
}

// dirBytes sums the log directory as the table should see it.
func dirBytes(t *testing.T, dir string) (files int, bytes int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files++
		bytes += info.Size()
	}
	return files, bytes
}

func checkStatsMatchDir(t *testing.T, l *Log, dir string) {
	t.Helper()
	files, bytes := dirBytes(t, dir)
	if st := l.Stats(); st.Files != files || st.Bytes != bytes {
		t.Fatalf("table says %d files / %d bytes, directory holds %d / %d", st.Files, st.Bytes, files, bytes)
	}
}

// TestClaimsReleaseUnlinksSealedFile: append raises the claim count of
// the file it names; a sealed file goes when, and only when, its last
// claim is released; the active file stays whatever its count.
func TestClaimsReleaseUnlinksSealedFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frs := appendN(t, l, 1, 40)
	first, last := frs[0].LogSeq, frs[len(frs)-1].LogSeq
	if first != 1 || last <= first {
		t.Fatalf("frames landed in files %d..%d, want rotation from file 1", first, last)
	}
	if st := l.Stats(); st.LiveRecords != 40 {
		t.Fatalf("live = %d after 40 appends", st.LiveRecords)
	}
	checkStatsMatchDir(t, l, dir)

	inFirst := 0
	for _, f := range frs {
		if f.LogSeq == first {
			inFirst++
		}
	}
	l.Release(first, inFirst-1)
	if !exists(dir, first) {
		t.Fatal("file unlinked while one claim was still held")
	}
	l.Release(first, 1)
	if exists(dir, first) {
		t.Fatal("sealed file survives its last claim")
	}
	st := l.Stats()
	if st.LiveRecords != int64(40-inFirst) || st.ReclaimedBytes == 0 {
		t.Fatalf("after reclaim: live=%d reclaimed=%d", st.LiveRecords, st.ReclaimedBytes)
	}
	checkStatsMatchDir(t, l, dir)

	// The active file is never unlinked, claimed or not.
	inLast := 0
	for _, f := range frs {
		if f.LogSeq == last {
			inLast++
		}
	}
	l.Release(last, inLast)
	if !exists(dir, last) {
		t.Fatal("active file unlinked at zero claims")
	}
}

// TestRelocateMovesClaims: the relocation protocol end to end — the
// candidate is the sealed file with the fewest survivors, its survivors
// are re-framed in the active file, the source goes, and a reopen
// replays each survivor exactly once from its new file.
func TestRelocateMovesClaims(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Files 1 to 3 sealed, 1 KiB each, so the two not relocated span the
	// 512-byte keep below.
	frs := appendUntilFile(t, l, 4)
	if _, ok := l.ReclaimCandidate(1 << 20); ok {
		t.Fatal("candidate offered while the log is smaller than keep")
	}
	if _, ok := l.ReclaimCandidate(512); ok {
		t.Fatal("candidate offered although every file is fully live")
	}
	// Flush most of file 1 away: three survivors.
	var survivors []disk.FlushRecord
	dead := 0
	for _, f := range frs {
		if f.LogSeq != 1 {
			continue
		}
		if len(survivors) < 3 {
			survivors = append(survivors, disk.FlushRecord{MB: f.MB, Score: f.Score})
		} else {
			dead++
		}
	}
	l.Release(1, dead)
	seq, ok := l.ReclaimCandidate(512)
	if !ok || seq != 1 {
		t.Fatalf("candidate = %d, %v; want file 1", seq, ok)
	}
	before := l.Stats()
	if err := l.Relocate(1, survivors); err != nil {
		t.Fatal(err)
	}
	if exists(dir, 1) {
		t.Fatal("relocated file still on disk")
	}
	for _, s := range survivors {
		if s.LogSeq <= 1 {
			t.Fatalf("survivor %d still names file %d", s.MB.ID, s.LogSeq)
		}
	}
	after := l.Stats()
	if after.LiveRecords != before.LiveRecords || after.RelocatedRecords != 3 || after.Files >= before.Files+1 {
		t.Fatalf("stats before %+v after %+v", before, after)
	}
	checkStatsMatchDir(t, l, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[uint64]int{}
	for _, r := range replayAll(t, re) {
		seen[uint64(r.MB.ID)]++
	}
	for _, s := range survivors {
		if seen[uint64(s.MB.ID)] != 1 {
			t.Fatalf("survivor %d replayed %d times", s.MB.ID, seen[uint64(s.MB.ID)])
		}
	}
}

// TestRelocateKeepsSourceForInFlightClaims: survivors leave, but records
// still on their way to a segment keep the drained file on disk until
// they are released; meanwhile it is not offered again.
func TestRelocateKeepsSourceForInFlightClaims(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frs := appendN(t, l, 1, 60)
	inFirst := 0
	for _, f := range frs {
		if f.LogSeq == 1 {
			inFirst++
		}
	}
	l.Release(1, inFirst-2) // two claims left: one survivor, one in flight
	survivor := []disk.FlushRecord{{MB: frs[0].MB, Score: frs[0].Score}}
	if err := l.Relocate(1, survivor); err != nil {
		t.Fatal(err)
	}
	if !exists(dir, 1) {
		t.Fatal("file unlinked under an in-flight claim")
	}
	if seq, ok := l.ReclaimCandidate(0); ok && seq == 1 {
		t.Fatal("drained file offered for relocation again")
	}
	l.Release(1, 1)
	if exists(dir, 1) {
		t.Fatal("drained file survives its last in-flight claim")
	}
}

// TestReplayRebuildsClaims: a reopened log pins what it finds until
// Replay has counted it; each delivered frame is a claim on its file;
// header-only leftovers of earlier opens go as they are replayed.
func TestReplayRebuildsClaims(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	frs := appendN(t, l, 1, 60)
	perFile := map[uint32]int{}
	for _, f := range frs {
		perFile[f.LogSeq]++
	}
	l.Close()
	// Two more opens, each leaving a header-only file behind.
	for i := 0; i < 2; i++ {
		x, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x.Close()
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.ReclaimCandidate(0); ok {
		t.Fatal("unreplayed file offered for relocation")
	}
	got := map[uint32]int{}
	if err := re.Replay(func(r disk.FlushRecord) error {
		got[r.LogSeq]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for seq, n := range perFile {
		if got[seq] != n {
			t.Fatalf("file %d replayed %d frames, want %d", seq, got[seq], n)
		}
	}
	if st := re.Stats(); st.LiveRecords != 60 {
		t.Fatalf("claims after replay = %d, want 60", st.LiveRecords)
	}
	// Files: the claimed ones plus the new active file; the header-only
	// leftovers are gone.
	if st := re.Stats(); st.Files != len(perFile)+1 {
		t.Fatalf("%d files after replay, want %d", st.Files, len(perFile)+1)
	}
	checkStatsMatchDir(t, re, dir)
	// Releasing a replayed file's claims unlinks it like any other.
	re.Release(1, perFile[1])
	if exists(dir, 1) {
		t.Fatal("replayed file survives its last claim")
	}
}

// TestOverReleaseIsCaught: releasing more claims than are held is a
// bookkeeping bug. Fault-injection builds stop on it; production builds
// keep the file rather than risk unlinking one that is still needed.
func TestOverReleaseIsCaught(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frs := appendN(t, l, 1, 20)
	inFirst := 0
	for _, f := range frs {
		if f.LogSeq == 1 {
			inFirst++
		}
	}
	l.Release(1, inFirst-1)
	defer func() {
		r := recover()
		if failpoint.Enabled && r == nil {
			t.Fatal("double release did not panic in a fault-injection build")
		}
		if !failpoint.Enabled {
			if r != nil {
				t.Fatalf("double release panicked in a production build: %v", r)
			}
			if !exists(dir, 1) {
				t.Fatal("over-released file was unlinked")
			}
		}
	}()
	l.Release(1, 2)
}
