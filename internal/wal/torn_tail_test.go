package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
)

// buildIntactLog appends n records to a fresh log and returns the raw
// bytes of the single log file plus the byte offset where the final
// record's frame starts.
func buildIntactLog(t *testing.T, n int) (intact []byte, lastFrame int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(fr(uint64(i), "kw")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 wal file, got %v (%v)", files, err)
	}
	intact, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// A crash tears the file that was being appended to, which is not
	// sealed yet.
	intact = stripIndex(t, intact)
	// Walk the frames to locate the last one.
	pos := headerSize
	for pos < len(intact) {
		lastFrame = pos
		pos += 8 + int(binary.LittleEndian.Uint32(intact[pos:]))
	}
	if pos != len(intact) {
		t.Fatalf("intact log does not parse: end %d != len %d", pos, len(intact))
	}
	return intact, lastFrame
}

// replayDir opens dir as a live Log (rotating, as engine recovery does)
// and replays it, returning the records and the reopened log.
func replayDir(t *testing.T, dir string) ([]disk.FlushRecord, *Log) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []disk.FlushRecord
	if err := l.Replay(func(r disk.FlushRecord) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out, l
}

func checkPrefix(t *testing.T, recs []disk.FlushRecord, wantN int, label string) {
	t.Helper()
	if len(recs) != wantN {
		t.Fatalf("%s: recovered %d records, want the intact prefix of %d", label, len(recs), wantN)
	}
	for i, r := range recs {
		if r.MB.ID != disk.FlushRecord(fr(uint64(i+1), "kw")).MB.ID ||
			len(r.MB.Keywords) != 1 || r.MB.Keywords[0] != "kw" || r.MB.Text != "payload" {
			t.Fatalf("%s: record %d corrupted: %+v", label, i, r.MB)
		}
	}
}

// TestTornTailMatrix is the exhaustive crash-tail matrix from ISSUE 5:
// for EVERY byte offset inside the last record of a log file it builds
// (a) a truncation at that offset and (b) a single-bit flip at that
// offset, then proves full recovery machinery — Open (which rotates) +
// Replay — recovers exactly the intact prefix, physically truncates the
// torn tail, never resurrects a partial record, and leaves a directory
// that stays replayable after further appends (the rotation-buries-the-
// torn-tail regression) and across a second recovery (idempotence).
func TestTornTailMatrix(t *testing.T) {
	const n = 5
	intact, lastFrame := buildIntactLog(t, n)

	run := func(t *testing.T, mutated []byte, label string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-00000001.kfw")
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, l := replayDir(t, dir)
		checkPrefix(t, recs, n-1, label+"/first-recovery")

		// The torn tail must be physically gone: the file replays
		// cleanly even in strict (non-tail) mode.
		if _, err := parseFile(path, false); err != nil {
			t.Fatalf("%s: torn tail not truncated away: %v", label, err)
		}

		// Appending after recovery rotates/grows the log; the once-torn
		// file is no longer the newest. Recovery must still work — this
		// is the latent bug a tolerated-but-untruncated tail triggers.
		if err := l.Append(fr(100, "kw2")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		recs2, l2 := replayDir(t, dir)
		if len(recs2) != n {
			t.Fatalf("%s: after append+reopen got %d records, want %d", label, len(recs2), n)
		}
		checkPrefix(t, recs2[:n-1], n-1, label+"/second-recovery")
		if recs2[n-1].MB.ID != 100 {
			t.Fatalf("%s: post-recovery append lost: %+v", label, recs2[n-1].MB)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		// Every cut strictly inside the last frame, including cutting
		// mid-frame-header.
		for cut := lastFrame; cut < len(intact); cut++ {
			run(t, append([]byte(nil), intact[:cut]...), "cut@"+itoa(cut))
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		for off := lastFrame; off < len(intact); off++ {
			mutated := append([]byte(nil), intact...)
			mutated[off] ^= 1 << (uint(off) % 8)
			run(t, mutated, "flip@"+itoa(off))
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
