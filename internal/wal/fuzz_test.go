package wal

import (
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/disk"
	"kflushing/internal/types"
)

// FuzzReplayFile feeds arbitrary file contents to the replay parser — as
// file 9, so a reference page may list the files before it. Seeds are
// v6 files, whose records code their IDs and timestamps as deltas from
// the record before them in the page, one of them with wall-clock
// timestamps and IDs stepping both ways. The parser must never panic,
// must tolerate arbitrary tails in last-file mode, and what it reads is
// whole pages: its page index tiles the valid prefix, counts every
// record it delivers, and a page index ends the file.
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
	var x disk.PageIndex
	f.Add(disk.AppendRecordPages(disk.AppendLogHeader(nil), []disk.FlushRecord{fr(1, "a"), fr(2, "b")}, &x), false)
	x.Reset()
	withRefs := disk.AppendRecordPages(disk.AppendLogHeader(nil), []disk.FlushRecord{fr(1, "a")}, &x)
	withRefs = disk.AppendReferencePage(withRefs, []disk.LogRef{{Seq: 3}, {Seq: 3, Ord: 2}, {Seq: 8, Ord: 1}}, &x)
	withRefs = disk.AppendRecordPages(withRefs, []disk.FlushRecord{fr(2, "b")}, &x)
	f.Add(disk.AppendPageIndex(withRefs, &x), false)
	x.Reset()
	var stamped []disk.FlushRecord
	for i, id := range []uint64{200_001, 200_002, 199_990, 200_003} {
		r := fr(id, "s")
		r.MB.Timestamp = types.Timestamp(1_760_000_000_000_000 + 166*i)
		r.Score = float64(r.MB.Timestamp)
		stamped = append(stamped, r)
	}
	f.Add(disk.AppendPageIndex(disk.AppendRecordPages(disk.AppendLogHeader(nil), stamped, &x), &x), true)

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
		if int(p.index.Records) != len(p.recs) || p.indexed && p.valid != int64(len(data)) {
			t.Fatalf("%d records delivered, %d indexed; sealed %v at %d of %d bytes",
				len(p.recs), p.index.Records, p.indexed, p.valid, len(data))
		}
		for i, off := range p.index.Off {
			if off < headerSize || off >= uint64(p.valid) || i > 0 && off <= p.index.Off[i-1] {
				t.Fatalf("page %d at %d in a valid prefix of %d bytes", i, off, p.valid)
			}
		}
		for _, rp := range p.refs {
			if rp.at > len(p.recs) || len(rp.refs) == 0 {
				t.Fatalf("reference page after %d of %d records lists %d", rp.at, len(p.recs), len(rp.refs))
			}
			for _, r := range rp.refs {
				if r.Seq >= 9 {
					t.Fatalf("file 9 lists a record of file %d", r.Seq)
				}
			}
		}
	})
}

// FuzzTornTail takes a well-formed v6 log file written by the log, a
// batch of three records at a time, tears it at an arbitrary offset with an
// optional bit flip inside the tail, and checks replay never errors,
// delivers every batch whose page lies wholly before the damage, and
// none of the records of the first damaged page or any after it — no
// partial batch — and reports a valid prefix that itself replays
// cleanly (truncation idempotence).
func FuzzTornTail(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 24; i += 3 {
		if err := l.AppendBatch([]disk.FlushRecord{fr(i, "seed"), fr(i+1, "seed"), fr(i+2, "seed")}); err != nil {
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
	whole, err := parseFile(files[0], false)
	if err != nil || len(whole.recs) != 24 || len(whole.index.Off) != 8 || !whole.indexed || whole.version != disk.LogVersion {
		f.Fatalf("seed file: version %d, %d records in %d pages, sealed %v, %v", whole.version, len(whole.recs), len(whole.index.Off), whole.indexed, err)
	}
	// pageEnds[p] is where record page p ends.
	pageEnds := append(append([]uint64(nil), whole.index.Off[1:]...), uint64(len(stripIndex(f, current))))
	f.Add(len(current)-1, -1)
	f.Add(headerSize+3, -1)
	f.Add(len(current), len(current)-2)
	f.Add(len(current)/2, len(current)/2+1)
	f.Add(len(current)-12, -1)
	f.Add(headerSize+disk.PageHeaderSize+1, headerSize+2)

	f.Fuzz(func(t *testing.T, cut, flip int) {
		intact := current
		if cut < 0 || cut > len(intact) {
			t.Skip()
		}
		data := append([]byte(nil), intact[:cut]...)
		// Flips inside the 6-byte file header model media corruption,
		// not a crash tail; replay rightly rejects those, so keep the
		// fuzz domain to page bytes.
		damage := cut
		if flip >= headerSize && flip < len(data) {
			data[flip] ^= 1 << (uint(flip) % 8)
			damage = flip
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
		// The pages wholly before the damage deliver, in order; the one
		// it hits delivers nothing, and neither does any page after it.
		want := 0
		for _, end := range pageEnds {
			if uint64(damage) >= end {
				want += 3
			}
		}
		if len(got) != want {
			t.Fatalf("damage at %d (cut %d): %d records delivered, want the %d of the pages before it", damage, cut, len(got), want)
		}
		for i, r := range got {
			if uint64(r.MB.ID) != uint64(i+1) || len(r.MB.Keywords) != 1 || r.MB.Keywords[0] != "seed" {
				t.Fatalf("record %d delivered as %+v", i, r)
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
