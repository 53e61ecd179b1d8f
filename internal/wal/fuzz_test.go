package wal

import (
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
)

// FuzzReplayFile feeds arbitrary file contents to the replay parser — as
// file 9, so a reference frame may list the files before it: it must
// never panic and must tolerate arbitrary tails in last-file mode.
func FuzzReplayFile(f *testing.F) {
	// Seed with a valid single-record file.
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Append(fr(1, "a")); err != nil {
		f.Fatal(err)
	}
	l.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if b, err := os.ReadFile(files[0]); err == nil {
		f.Add(b, true)
		f.Add(b[:len(b)-3], true)
	}
	f.Add([]byte("KFWL"), false)
	f.Add([]byte{}, true)
	f.Add(disk.AppendFrames(disk.AppendLogHeader(nil), []disk.FlushRecord{fr(1, "a"), fr(2, "b")}), false)
	withRefs := disk.AppendFrames(disk.AppendLogHeader(nil), []disk.FlushRecord{fr(1, "a")})
	withRefs = disk.AppendReferences(withRefs, []disk.LogRef{{Seq: 3}, {Seq: 3, Ord: 2}, {Seq: 8, Ord: 1}})
	f.Add(disk.AppendFrames(withRefs, []disk.FlushRecord{fr(2, "b")}), false)

	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		path := filepath.Join(t.TempDir(), "wal-00000009.kfw")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		// Must not panic; errors are fine. The reported valid prefix
		// must stay inside the file: Replay truncates to it.
		p, _ := parseFile(path, last)
		if valid := p.valid; valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside file of %d bytes", valid, len(data))
		}
		for _, rf := range p.refs {
			if rf.at > len(p.recs) || len(rf.refs) == 0 {
				t.Fatalf("reference frame after %d of %d records lists %d", rf.at, len(p.recs), len(rf.refs))
			}
			for _, r := range rf.refs {
				if r.Seq >= 9 {
					t.Fatalf("file 9 lists a frame of file %d", r.Seq)
				}
			}
		}
	})
}

// FuzzTornTail takes a well-formed multi-record log file written by the
// log, tears it at an arbitrary offset with an optional bit flip inside the tail, and checks replay
// never errors, never resurrects a partial record, and reports a valid
// prefix that itself replays cleanly (truncation idempotence).
func FuzzTornTail(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		if err := l.Append(fr(i, "seed")); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	current, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(len(current)-1, -1)
	f.Add(headerSize+3, -1)
	f.Add(len(current), len(current)-2)
	f.Add(len(current)/2, len(current)/2+1)
	f.Add(len(current)-12, -1)
	f.Add(headerSize+disk.FrameHeaderSize+1, headerSize+2)

	f.Fuzz(func(t *testing.T, cut, flip int) {
		intact := current
		if cut < 0 || cut > len(intact) {
			t.Skip()
		}
		data := append([]byte(nil), intact[:cut]...)
		// Flips inside the 6-byte file header model media corruption,
		// not a crash tail; replay rightly rejects those, so keep the
		// fuzz domain to record bytes.
		if flip >= headerSize && flip < len(data) {
			data[flip] ^= 1 << (uint(flip) % 8)
		}
		path := filepath.Join(t.TempDir(), "wal-00000001.kfw")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, err := parseFile(path, true)
		got, valid := p.recs, p.valid
		if err != nil {
			t.Fatalf("torn/flipped tail must be tolerated in last-file mode, got %v", err)
		}
		// Every replayed record must be one of the seeds, whole.
		for _, r := range got {
			if r.MB.ID < 1 || r.MB.ID > 8 || len(r.MB.Keywords) != 1 || r.MB.Keywords[0] != "seed" {
				t.Fatalf("resurrected partial/corrupt record: %+v", r)
			}
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside file of %d bytes", valid, len(data))
		}
		// Truncating to the reported prefix must replay the same set
		// with no further tolerance needed.
		if err := os.Truncate(path, valid); err != nil {
			t.Fatal(err)
		}
		p, err = parseFile(path, false)
		again, valid2 := p.recs, p.valid
		if err != nil {
			t.Fatalf("truncated file must be fully valid, got %v", err)
		}
		if valid2 != valid || len(again) != len(got) {
			t.Fatalf("truncation not idempotent: valid %d->%d, records %d->%d",
				valid, valid2, len(got), len(again))
		}
	})
}
