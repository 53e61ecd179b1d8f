package wal

import (
	"os"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/types"
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
	l.Release(first, first, inFirst-1)
	if !exists(dir, first) {
		t.Fatal("file unlinked while one claim was still held")
	}
	l.Release(first, first, 1)
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
	l.Release(last, last, inLast)
	if !exists(dir, last) {
		t.Fatal("active file unlinked at zero claims")
	}
}

// checkReplaySetMatchesDir compares the table's replay set with the
// directory, leaving out the drained files named by held: still on disk
// for what memory holds, but not replayed.
func checkReplaySetMatchesDir(t *testing.T, l *Log, dir string, held ...uint32) {
	t.Helper()
	files, bytes := dirBytes(t, dir)
	for _, seq := range held {
		info, err := os.Stat(l.path(seq))
		if err != nil {
			t.Fatalf("held file %d: %v", seq, err)
		}
		files--
		bytes -= info.Size()
	}
	if st := l.Stats(); st.Files != files || st.Bytes-st.ReferencedBytes != bytes {
		t.Fatalf("table replays %d files / %d bytes, directory holds %d / %d", st.Files, st.Bytes-st.ReferencedBytes, files, bytes)
	}
}

// TestReferenceMovesCovers: the reclaim protocol end to end — the
// candidate is the sealed file with the fewest survivors; one reference
// frame in the active file lists them and takes their covers; the source
// drains but stays on disk, unchanged, while memory holds the survivors'
// bytes; a reopen that skips it replays each survivor exactly once,
// through the reference, from its original frame; and the file goes when
// its last hold does and no file still replayed lists it.
func TestReferenceMovesCovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Files 1 to 3 sealed, 1 KiB each, so the two not referenced out span
	// the 512-byte keep below.
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
			survivors = append(survivors, f)
		} else {
			dead++
		}
	}
	l.Release(1, 1, dead)
	seq, ok := l.ReclaimCandidate(512)
	if !ok || seq != 1 {
		t.Fatalf("candidate = %d, %v; want file 1", seq, ok)
	}
	before := l.Stats()
	img, err := os.ReadFile(l.path(1))
	if err != nil {
		t.Fatal(err)
	}
	to, err := l.Reference(1, survivors)
	if err != nil {
		t.Fatal(err)
	}
	if to != 4 {
		t.Fatalf("survivors referenced into file %d, want the active file 4", to)
	}
	if after, err := os.ReadFile(l.path(1)); err != nil || string(after) != string(img) {
		t.Fatalf("the referenced file changed or went: %v", err)
	}
	if !l.Holds(1) {
		t.Fatal("the log lets go of a file whose records memory holds")
	}
	after := l.Stats()
	if after.LiveRecords != before.LiveRecords || after.ReferencedRecords != 3 || after.Files != before.Files-1 {
		t.Fatalf("stats before %+v after %+v", before, after)
	}
	if after.ReferencedBytes <= 0 || after.Bytes-after.ReferencedBytes <= before.Bytes-int64(len(img)) {
		t.Fatalf("replay volume %+v: the reference frame and what it lists are not counted", after)
	}
	checkReplaySetMatchesDir(t, l, dir, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen as a durable store does: the tier's manifest lists file 1
	// drained.
	commitDrained(t, dir, 1)
	tier, logs, re := ownedLog(t, dir)
	defer re.Close()
	seen := map[uint64]int{}
	for _, r := range replayAll(t, re) {
		seen[uint64(r.MB.ID)]++
		if r.LogSeq == 1 && r.ReplaySeq != 4 {
			t.Fatalf("record %d of file 1 delivered by file %d, want the referencing file 4", r.MB.ID, r.ReplaySeq)
		}
	}
	for _, s := range survivors {
		if seen[uint64(s.MB.ID)] != 1 {
			t.Fatalf("survivor %d replayed %d times", s.MB.ID, seen[uint64(s.MB.ID)])
		}
	}
	logs.Track(re.Holds)
	if !re.Holds(1) || !exists(dir, 1) {
		t.Fatal("a drained file a replayed reference frame lists is let go")
	}
	// The survivors flushed: file 1 is held no more, but file 4 still
	// replays and lists it. Once file 4 drains too, file 1 goes.
	re.Release(4, 1, len(survivors))
	if !re.Holds(1) || !exists(dir, 1) {
		t.Fatal("file 1 let go while a replayed file lists it")
	}
	for _, f := range frs {
		if f.LogSeq == 4 {
			re.Release(4, 4, 1)
		}
	}
	// The tier's last commit carries file 4's drain mark.
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if re.Holds(1) || exists(dir, 1) || exists(dir, 4) {
		t.Fatal("files 1 and 4 survive the drain of the file that listed file 1")
	}
}

// TestReferenceKeepsSourceForInFlightClaims: survivors leave, but records
// still on their way to a segment keep the file in the replay set until
// they are released; meanwhile it is not offered again. Drained, it
// stays on disk for the survivor memory still holds.
func TestReferenceKeepsSourceForInFlightClaims(t *testing.T) {
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
	l.Release(1, 1, inFirst-2) // two claims left: one survivor, one in flight
	files := l.Stats().Files
	to, err := l.Reference(1, frs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Files != files {
		t.Fatalf("%d files replayed, want %d: file 1 drained under an in-flight claim", st.Files, files)
	}
	if seq, ok := l.ReclaimCandidate(0); ok && seq == 1 {
		t.Fatal("referenced file offered again")
	}
	l.Release(1, 1, 1)
	if st := l.Stats(); st.Files != files-1 || !exists(dir, 1) || !l.Holds(1) {
		t.Fatalf("after the in-flight release: %d files replayed, file 1 on disk %v; want it drained and kept",
			st.Files, exists(dir, 1))
	}
	l.Release(to, 1, 1)
	if !exists(dir, 1) {
		t.Fatal("file 1 unlinked while the active file's reference frame lists it")
	}
}

// TestReplayDeliversEachRecordOnce: a crash between a reference frame's
// fsync and its source's drain leaves two files listing the survivors —
// the source, kept by a claim still in flight, and the referencing file.
// Replay delivers each record once, from the source, and claims only
// what it delivers; the referencing file still reaches the source.
func TestReplayDeliversEachRecordOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	frs := appendUntilFile(t, l, 2)
	inFirst := 0
	for _, f := range frs {
		if f.LogSeq == 1 {
			inFirst++
		}
	}
	// Three claims left on file 1: two survivors and one record in flight.
	l.Release(1, 1, inFirst-3)
	to, err := l.Reference(1, frs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !l.Replays(1) {
		t.Fatal("file 1 drained under an in-flight claim")
	}
	// Crash: reopen without Close.
	re, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[types.ID]int{}
	for _, r := range replayAll(t, re) {
		if seen[r.MB.ID]++; seen[r.MB.ID] > 1 {
			t.Fatalf("record %d delivered twice, the second time by file %d", r.MB.ID, r.ReplaySeq)
		}
		if r.MB.ID <= frs[1].MB.ID && r.ReplaySeq != 1 {
			t.Fatalf("survivor %d delivered by file %d, want its source, file 1", r.MB.ID, r.ReplaySeq)
		}
	}
	if len(seen) != len(frs) {
		t.Fatalf("%d distinct records delivered, want %d", len(seen), len(frs))
	}
	if st := re.Stats(); st.LiveRecords != int64(len(seen)) {
		t.Fatalf("%d claims after replay for %d records delivered", st.LiveRecords, len(seen))
	}
	// File 1 holds every claim of its frames: releasing them drains it,
	// but the referencing file, still replayed, keeps it on disk.
	re.Release(1, 1, inFirst)
	if re.Replays(1) || !re.Holds(1) || !exists(dir, 1) {
		t.Fatalf("file 1 after its last release: replayed %v, held %v, on disk %v; want drained and kept while file %d lists it",
			re.Replays(1), re.Holds(1), exists(dir, 1), to)
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
		t.Fatal("unreplayed file offered for reclaim")
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
	re.Release(1, 1, perFile[1])
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
	l.Release(1, 1, inFirst-1)
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
	l.Release(1, 1, 2)
}

// drainedSet returns a registry of dir's log files that lists seqs
// drained.
func drainedSet(dir string, seqs ...uint32) *disk.LogSet {
	logs := disk.NewLogSet(dir)
	for _, seq := range seqs {
		logs.Drain(seq)
	}
	return logs
}

// commitDrained has the manifest of a tier in dir list log files seqs
// drained.
func commitDrained(t *testing.T, dir string, seqs ...uint32) {
	t.Helper()
	tier, logs, l := ownedLog(t, dir)
	for _, seq := range seqs {
		logs.Drain(seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
}

// ownedLog opens a tier and a log in dir over one registry of the log's
// files, as a durable engine wires them: the registry skips and records
// drained files, and unlinks one only when the log no longer holds it.
func ownedLog(t *testing.T, dir string) (*disk.Tier[string], *disk.LogSet, *Log) {
	t.Helper()
	logs := disk.NewLogSet(dir)
	tier, err := disk.Open(disk.Config[string]{
		Dir:    dir,
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
		Logged: true,
		Logs:   logs,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Logs: logs})
	if err != nil {
		t.Fatal(err)
	}
	return tier, logs, l
}

// TestReferencedDrainedFileSurvives: a drained log file no directory
// names, whose record a reference frame of an undrained file lists,
// stays on disk through a tier's open (rule 6), the log's replay and the
// tier's sweep after it, a merge, and an offline compaction — and the
// record it frames replays each time, through the reference.
func TestReferencedDrainedFileSurvives(t *testing.T) {
	dir := t.TempDir()
	tier, logs, l := ownedLog(t, dir)
	logs.Track(l.Holds)
	frs := []disk.FlushRecord{fr(1, "k"), fr(2, "k"), fr(3, "k")}
	if err := l.AppendBatch(frs); err != nil || l.Seal() != nil {
		t.Fatal("append and seal", err)
	}
	// Records 2 and 3 leave memory without a flush naming file 1 — as
	// replayed records no engine indexes do — and record 1 is referenced
	// out of it.
	l.Release(1, 1, 2)
	if _, err := l.Reference(1, frs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if !logs.Drained(1) || !exists(dir, 1) {
		t.Fatal("file 1 is not drained and kept")
	}

	reopen := func(stage string) (*disk.Tier[string], *Log) {
		t.Helper()
		tier, logs, l := ownedLog(t, dir)
		if !exists(dir, 1) {
			t.Fatalf("%s: the tier's open deleted a drained file a reference frame lists", stage)
		}
		got := replayAll(t, l)
		if len(got) != 1 || got[0].MB.ID != 1 || got[0].LogSeq != 1 || got[0].ReplaySeq != 2 {
			t.Fatalf("%s: replay delivered %+v, want record 1 of file 1 through file 2", stage, got)
		}
		logs.Track(l.Holds)
		if !exists(dir, 1) {
			t.Fatalf("%s: the sweep after replay deleted a drained file a reference frame lists", stage)
		}
		return tier, l
	}
	tier, l = reopen("open")
	// Two flushes of new records, then a merge of their directories.
	for id := uint64(10); id < 12; id++ {
		batch := []disk.FlushRecord{fr(id, "k")}
		if err := l.AppendBatch(batch); err != nil || l.Seal() != nil {
			t.Fatal("append and seal", err)
		}
		if err := tier.Flush(batch); err != nil {
			t.Fatal(err)
		}
		l.Release(batch[0].ReplaySeq, batch[0].LogSeq, 1)
	}
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if !exists(dir, 1) {
		t.Fatal("a merge deleted a drained file a reference frame lists")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.CompactDir(dir); err != nil {
		t.Fatal(err)
	}
	if !exists(dir, 1) {
		t.Fatal("an offline compaction deleted a drained file a reference frame lists")
	}
	tier, l = reopen("after compaction")
	l.Close()
	tier.Close()
}
