package main

import (
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/wal"
)

// TestCmdLevelsShowsDrained: the manifest's drained log files are listed
// — their count on the header line, one line each — and one whose file
// is gone is marked as pruned at the next open.
func TestCmdLevelsShowsDrained(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One record per file: wal-1 frames record 1, wal-2 record 2.
	frs := make([]disk.FlushRecord, 2)
	for i := range frs {
		frs[i] = disk.FlushRecord{MB: &kflushing.Microblog{ID: kflushing.ID(i + 1), Keywords: []string{"a"}}, Score: float64(i)}
		if err := l.AppendBatch(frs[i : i+1]); err != nil || l.Seal() != nil {
			t.Fatal("append and seal", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
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
	logs.Track(func(uint32) bool { return false }) // the log holds neither file
	// A directory names wal-2; wal-1 is named by none, so draining it
	// unlinks it while the manifest still lists it.
	if err := tier.Flush(frs[1:]); err != nil {
		t.Fatal(err)
	}
	logs.Drain(1)
	logs.Drain(2)
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := cmdLevels(&out, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		" live=1 retired=0 drained=2\n",
		"drained wal-00000001.kfw (gone; pruned at next open)\n",
		"drained wal-00000002.kfw\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
