package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/wal"
)

// referencedStore writes a store directory whose log reclaimed a file:
// wal-1 frames records 1 to 4, of which a directory posts 2 to 4, and
// wal-2's reference frame lists record 1, so wal-1 is drained.
func referencedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	logs := disk.NewLogSet(dir)
	tier, err := disk.Open(disk.Config[string]{
		Dir:    dir,
		KeysOf: func(m *kflushing.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
		Logged: true,
		Logs:   logs,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{Logs: logs})
	if err != nil {
		t.Fatal(err)
	}
	frs := make([]disk.FlushRecord, 4)
	for i := range frs {
		frs[i] = disk.FlushRecord{MB: &kflushing.Microblog{ID: kflushing.ID(i + 1), Keywords: []string{"a"}, Text: "t"}, Score: float64(i + 1)}
	}
	if err := l.AppendBatch(frs); err != nil || l.Seal() != nil {
		t.Fatal("append and seal", err)
	}
	if err := tier.Flush(frs[1:]); err != nil {
		t.Fatal(err)
	}
	l.Release(1, 1, 3)
	if _, err := l.Reference(1, frs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCmdWALShowsReferences: each file's line carries its frames and the
// records its reference frames list, and the summary's replayable count
// is what a recovery delivers — the reference into the drained file
// included.
func TestCmdWALShowsReferences(t *testing.T) {
	dir := referencedStore(t)
	var out strings.Builder
	if err := cmdWAL(&out, dir); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	for i, want := range []string{
		"wal-00000001.kfw     v6        4 records      1 pages        0 refs",
		"wal-00000002.kfw     v6        0 records      1 pages        1 refs",
	} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d is %q, want it to hold %q", i, lines[i], want)
		}
	}
	if !strings.HasSuffix(lines[0], "sealed, drained") || !strings.HasSuffix(lines[1], "  sealed") {
		t.Errorf("states:\n%s", out.String())
	}
	if !strings.Contains(lines[2], "ok: 2 files, 4 records, 1 references in ") || !strings.Contains(lines[2], " bytes, 1 replayable") {
		t.Errorf("summary %q", lines[2])
	}
}

// TestCmdDumpReferenceFrame: a log file's reference frame dumps as one
// JSON line listing its frames by file.
func TestCmdDumpReferenceFrame(t *testing.T) {
	dir := referencedStore(t)
	var out strings.Builder
	if err := cmdDump(&out, filepath.Join(dir, disk.LogName(2))); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), `{"references":[{"file":"wal-00000001.kfw","ordinals":[0]}]}`+"\n"; got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
	out.Reset()
	if err := cmdDump(&out, filepath.Join(dir, disk.LogName(1))); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), `"id":`); n != 4 {
		t.Fatalf("wal-1 dumps %d records, want 4:\n%s", n, out.String())
	}
}

// TestCmdVerifyResolvesReferences: verify resolves every reference of an
// undrained log file, and fails on one listing a frame its file lacks.
func TestCmdVerifyResolvesReferences(t *testing.T) {
	dir := referencedStore(t)
	var out strings.Builder
	if err := cmdVerify(&out, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ", 1 log references resolved") {
		t.Fatalf("verify: %q", out.String())
	}
	// A sealed file 3 listing record 9 of file 1, which holds 4.
	var index disk.PageIndex
	img := disk.AppendReferencePage(disk.AppendLogHeader(nil), []disk.LogRef{{Seq: 1, Ord: 9}}, &index)
	img = disk.AppendPageIndex(img, &index)
	if err := os.WriteFile(filepath.Join(dir, disk.LogName(3)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(&out, dir); err == nil || !strings.Contains(err.Error(), "lists records of wal-00000001.kfw: record 9 of 4") {
		t.Fatalf("verify over a dangling reference: %v", err)
	}
}
