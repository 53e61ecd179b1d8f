package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/types"
)

// v2File is a version-2 log file (frames, no index) holding recs.
func v2File(recs ...disk.FlushRecord) []byte {
	return disk.AppendFrames(binary.LittleEndian.AppendUint16([]byte(disk.LogMagic), disk.LogVersionV2), recs)
}

// v1File is a version-1 log file holding recs: frames of fixed-width
// records, a format production no longer writes.
func v1File(recs ...disk.FlushRecord) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint16([]byte(disk.LogMagic), disk.LogVersionV1)
	for _, fr := range recs {
		m := fr.MB
		p := le.AppendUint64(nil, uint64(m.ID))
		p = le.AppendUint64(p, uint64(m.Timestamp))
		p = le.AppendUint64(p, m.UserID)
		p = le.AppendUint32(p, m.Followers)
		if m.HasGeo {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
		p = le.AppendUint64(p, math.Float64bits(fr.Score))
		p = le.AppendUint64(p, math.Float64bits(m.Lat))
		p = le.AppendUint64(p, math.Float64bits(m.Lon))
		p = le.AppendUint16(p, uint16(len(m.Keywords)))
		for _, kw := range m.Keywords {
			p = le.AppendUint16(p, uint16(len(kw)))
			p = append(p, kw...)
		}
		p = le.AppendUint32(p, uint32(len(m.Text)))
		p = append(p, m.Text...)
		buf = le.AppendUint32(buf, uint32(len(p)))
		buf = le.AppendUint32(buf, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		buf = append(buf, p...)
	}
	return buf
}

// writeLegacyLog writes files, by name, into <dir>/wal.
func writeLegacyLog(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	legacy := filepath.Join(dir, "wal")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, img := range files {
		if err := os.WriteFile(filepath.Join(legacy, name), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedVersionLog: a log a previous release left in <dir>/wal — a
// version-1 snapshot, a version-1 sealed file and a version-2 file a
// crash left open — is refused as it stands; after the upgrade it
// replays in order, every field intact, from one current file, which
// reclaim treats like any other: a reference frame in the active file
// takes its survivors' replay over, it drains but stays for the bytes
// memory holds, and every file is the current version.
func TestMixedVersionLog(t *testing.T) {
	dir := t.TempDir()
	// Records 1–3 in the snapshot, 4–10 in file 1 (7 carries a score that
	// is not its timestamp), 11–15 in file 2.
	var snap, old, cur []disk.FlushRecord
	for id := uint64(1); id <= 15; id++ {
		r := fr(id, "k")
		r.MB.Lat, r.MB.Lon, r.MB.HasGeo = float64(id), -float64(id), id%2 == 0
		switch {
		case id <= 3:
			snap = append(snap, r)
		case id <= 10:
			if id == 7 {
				r.Score = 0.5
			}
			old = append(old, r)
		default:
			cur = append(cur, r)
		}
	}
	writeLegacyLog(t, dir, map[string][]byte{
		"snapshot.kfw":  v1File(snap...),
		disk.LogName(1): v1File(old...),
		disk.LogName(2): v2File(cur...),
	})
	if err := CheckDir(dir); !errors.Is(err, disk.ErrNeedsUpgrade) {
		t.Fatalf("CheckDir = %v, want ErrNeedsUpgrade", err)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 15 {
		t.Fatalf("replayed %d records, want 15", len(got))
	}
	all := append(append(append([]disk.FlushRecord(nil), snap...), old...), cur...)
	for i, r := range got {
		id, want, m := uint64(i+1), all[i], r.MB
		if uint64(m.ID) != id || r.Score != want.Score || m.Timestamp != want.MB.Timestamp || m.Lat != float64(id) ||
			m.Lon != -float64(id) || m.HasGeo != (id%2 == 0) || m.Text != "payload" || len(m.Keywords) != 1 {
			t.Fatalf("record %d replayed as %+v score %v", id, m, r.Score)
		}
		if r.LogSeq != 1 || r.LogOrd != uint32(i) {
			t.Fatalf("record %d names file %d frame %d, want file 1 frame %d", id, r.LogSeq, r.LogOrd, i)
		}
	}

	// The upgraded file is mostly flushed; its survivors — 4, 7 and the
	// records of the file the crash left open — are referenced from the
	// active file, file 2.
	var survivors []disk.FlushRecord
	for _, r := range got {
		if id := r.MB.ID; id == 4 || id == 7 || id > 10 {
			survivors = append(survivors, r)
		}
	}
	l.Release(1, 1, len(got)-len(survivors))
	if seq, ok := l.ReclaimCandidate(0); !ok || seq != 1 {
		t.Fatalf("candidate = %d, %v; want file 1", seq, ok)
	}
	if to, err := l.Reference(1, survivors); err != nil || to != 2 {
		t.Fatalf("survivors referenced into file %d, %v; want 2", to, err)
	}
	if !exists(dir, 1) {
		t.Fatal("the referenced file went while memory holds its records")
	}
	checkReplaySetMatchesDir(t, l, dir, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	infos, err := Inspect(dir)
	if err != nil || len(infos) != 2 || infos[1].References != len(survivors) {
		t.Fatalf("log files after reclaim %+v, %v; want file 1 and file 2 listing %d", infos, err, len(survivors))
	}
	for _, fi := range infos {
		if fi.Version != fileVersion {
			t.Fatalf("%s is version %d after reclaim, want %d", fi.Name, fi.Version, fileVersion)
		}
	}

	re, err := Open(dir, Options{Logs: drainedSet(dir, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[types.ID]int{}
	for _, r := range replayAll(t, re) {
		seen[r.MB.ID]++
		if r.MB.ID == 7 && r.Score != 0.5 {
			t.Fatalf("referenced record 7 replays with score %v, want 0.5", r.Score)
		}
	}
	if len(seen) != len(survivors) || seen[4] != 1 || seen[7] != 1 || seen[11] != 1 || seen[15] != 1 {
		t.Fatalf("after reclaim replay holds %v", seen)
	}
}

// TestSnapshotIsFileZero: the clean-shutdown snapshot of a log kept in
// <dir>/wal, which releases before the upgrade replayed as file 0, still
// replays first — the upgrade frames its records ahead of every file's —
// and the file they land in is reclaimed by the same rule as any other.
func TestSnapshotIsFileZero(t *testing.T) {
	dir := t.TempDir()
	snap := []disk.FlushRecord{fr(18), fr(19), fr(20)}
	later := []disk.FlushRecord{fr(21), fr(22)}
	writeLegacyLog(t, dir, map[string][]byte{"snapshot.kfw": v2File(snap...), disk.LogName(1): v2File(later...)})
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l)
	want := append(append([]disk.FlushRecord(nil), snap...), later...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.MB.ID != want[i].MB.ID || r.LogSeq != 1 || r.LogOrd != uint32(i) {
			t.Fatalf("frame %d of file 1 holds record %d as file %d frame %d, want record %d",
				i, r.MB.ID, r.LogSeq, r.LogOrd, want[i].MB.ID)
		}
	}
	checkStatsMatchDir(t, l, dir)
	l.Release(1, 1, len(got)-1)
	if !exists(dir, 1) {
		t.Fatal("the snapshot's file unlinked while claimed")
	}
	l.Release(1, 1, 1)
	if exists(dir, 1) {
		t.Fatal("the snapshot's file survives its last claim")
	}
}

// TestMigrateLegacyLog: a log kept in <dir>/wal — a snapshot and two
// files — makes CheckDir refuse the directory; Upgrade
// re-frames it into one sealed file of the current version, numbered past
// every log file on disk and every one the manifest lists drained, and
// removes <dir>/wal; the records replay with every field intact, and a
// second Upgrade does nothing.
func TestMigrateLegacyLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "wal")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := []disk.FlushRecord{fr(1, "a"), fr(2, "b")}
	old := []disk.FlushRecord{fr(3, "c"), fr(4, "d")}
	old[1].Score = 0.5
	cur := []disk.FlushRecord{fr(5, "e")}
	for name, img := range map[string][]byte{
		"snapshot.kfw":  v2File(snap...),
		disk.LogName(6): v2File(old...),
		disk.LogName(7): v2File(cur...),
	} {
		if err := os.WriteFile(filepath.Join(legacy, name), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The store's own log: file 2 is on disk, file 3 is drained and gone.
	if err := os.WriteFile(filepath.Join(dir, disk.LogName(2)), disk.AppendLogHeader(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	logs := disk.NewLogSet(dir)
	tier, err := disk.Open(disk.Config[string]{Dir: dir, KeysOf: func(*types.Microblog) []string { return nil },
		Encode: func(s string) string { return s }, Logged: true, Logs: logs})
	if err != nil {
		t.Fatal(err)
	}
	writeFrames(t, dir, 3)
	logs.Track(func(uint32) bool { return false }) // no log holds anything
	logs.Drain(3)
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := disk.ReadManifest(dir); err != nil || len(m.Drained) != 1 || exists(dir, 3) {
		t.Fatalf("manifest %+v, %v; want file 3 listed drained and gone", m, err)
	}

	if err := CheckDir(dir); !errors.Is(err, disk.ErrNeedsUpgrade) {
		t.Fatalf("CheckDir = %v, want ErrNeedsUpgrade", err)
	}
	if err := Upgrade(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("<dir>/wal still there after the upgrade: %v", err)
	}
	if err := Upgrade(dir); err != nil || exists(dir, 5) {
		t.Fatalf("a second upgrade: %v, file 5 %v", err, exists(dir, 5))
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l)
	want := append(append(append([]disk.FlushRecord(nil), snap...), old...), cur...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.MB.ID != want[i].MB.ID || r.Score != want[i].Score || r.MB.Keywords[0] != want[i].MB.Keywords[0] ||
			r.MB.Text != want[i].MB.Text || r.LogSeq != 4 {
			t.Fatalf("record %d replayed as %+v score %v from file %d", i, r.MB, r.Score, r.LogSeq)
		}
	}
}

// writeFrames writes sealed log file seq holding one record.
func writeFrames(t *testing.T, dir string, seq uint32) {
	t.Helper()
	buf := disk.AppendLogHeader(nil)
	buf = disk.AppendFrameIndex(disk.AppendFrames(buf, []disk.FlushRecord{fr(9, "z")}), []uint32{uint32(len(buf))})
	if err := os.WriteFile(filepath.Join(dir, disk.LogName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
