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
)

// appendFixedFrames frames recs in disk.CodecFixed, as every log file
// before PR 25 did. The writer itself lives only in test code: this is
// a copy of the disk package's, for a frozen format.
func appendFixedFrames(buf []byte, recs []disk.FlushRecord) []byte {
	le := binary.LittleEndian
	for _, fr := range recs {
		m := fr.MB
		var p []byte
		p = le.AppendUint64(p, uint64(m.ID))
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

// v1File is a version-1 log file holding recs.
func v1File(recs []disk.FlushRecord) []byte {
	hdr := append([]byte(disk.LogMagic), disk.LogVersionV1, 0)
	return appendFixedFrames(hdr, recs)
}

// fileVersionOf reads the version from a log file's header.
func fileVersionOf(t *testing.T, path string) uint16 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil || len(b) < headerSize {
		t.Fatalf("%s: %d bytes, %v", filepath.Base(path), len(b), err)
	}
	return binary.LittleEndian.Uint16(b[4:])
}

// TestReplayRefusesUnknownVersion: a file whose header names a version
// the log has no codec for is ErrCorrupt — in the crash-tail file too —
// never decoded with a codec it does not name.
func TestReplayRefusesUnknownVersion(t *testing.T) {
	for _, version := range []uint16{0, 4, 0xFFFF} {
		dir := t.TempDir()
		img := binary.LittleEndian.AppendUint16([]byte(disk.LogMagic), version)
		img = disk.AppendFrames(img, []disk.FlushRecord{fr(1, "k")})
		path := filepath.Join(dir, "wal-00000001.kfw")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, last := range []bool{false, true} {
			n := 0
			_, err := replayFile(path, last, func(disk.FlushRecord) error { n++; return nil })
			if !errors.Is(err, ErrCorrupt) || n != 0 {
				t.Fatalf("version %d (last=%v): %d records, err %v; want ErrCorrupt and none", version, last, n, err)
			}
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Replay(func(disk.FlushRecord) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: Replay returned %v, want ErrCorrupt", version, err)
		}
		l.Close()
	}
}

// TestMixedVersionLog: a log directory a previous release left — a
// version-1 snapshot and a version-1 sealed file — beside a current
// file a crash left unsealed replays in order with every field intact;
// relocation moves the old file's survivors into a current file and the
// old files go as their last claims are released; after that every
// file is the current version.
func TestMixedVersionLog(t *testing.T) {
	dir := t.TempDir()
	// Records 1–3 in the snapshot, 4–10 in sealed file 1 (7 carries a
	// score that is not its timestamp), 11–15 in file 2.
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
	write := func(name string, img []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(snapshotName, v1File(snap))
	write("wal-00000001.kfw", v1File(old))
	write("wal-00000002.kfw", disk.AppendFrames(disk.AppendLogHeader(nil), cur))

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
		wantSeq := uint32(2)
		if id <= 3 {
			wantSeq = 0
		} else if id <= 10 {
			wantSeq = 1
		}
		if r.LogSeq != wantSeq {
			t.Fatalf("record %d names file %d, want %d", id, r.LogSeq, wantSeq)
		}
	}

	// File 1 is mostly flushed; two survivors are relocated into the
	// active file, which is version 2.
	survivors := []disk.FlushRecord{{MB: got[3].MB, Score: got[3].Score}, {MB: got[6].MB, Score: got[6].Score}}
	l.Release(1, len(old)-len(survivors))
	if seq, ok := l.ReclaimCandidate(0); !ok || seq != 1 {
		t.Fatalf("candidate = %d, %v; want file 1", seq, ok)
	}
	if err := l.Relocate(1, survivors); err != nil {
		t.Fatal(err)
	}
	if exists(dir, 1) {
		t.Fatal("relocated version-1 file still on disk")
	}
	for _, s := range survivors {
		if s.LogSeq != 3 {
			t.Fatalf("survivor %d relocated to file %d, want 3", s.MB.ID, s.LogSeq)
		}
	}
	// The version-1 snapshot goes with its last claim like any file.
	l.Release(0, len(snap))
	if exists(dir, 0) {
		t.Fatal("version-1 snapshot survives its last claim")
	}
	checkStatsMatchDir(t, l, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.kfw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		if v := fileVersionOf(t, p); v != fileVersion {
			t.Fatalf("%s is version %d after reclaim, want %d", filepath.Base(p), v, fileVersion)
		}
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again := replayAll(t, re)
	seen := map[uint64]int{}
	for _, r := range again {
		seen[uint64(r.MB.ID)]++
		if r.MB.ID == 7 && r.Score != 0.5 {
			t.Fatalf("relocated record 7 replays with score %v, want 0.5", r.Score)
		}
	}
	if len(seen) != len(cur)+len(survivors) || seen[4] != 1 || seen[7] != 1 || seen[11] != 1 || seen[15] != 1 {
		t.Fatalf("after relocation replay holds %v", seen)
	}
	re.Close()
}
