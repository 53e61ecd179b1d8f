package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/server"
)

// sharedLogStore writes a durable kflushd data directory: three tiers
// over the one log in keyword/, every tier with directories naming its
// files.
func sharedLogStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := server.OpenStore(dir, kflushing.Options{MemoryBudget: 24 << 10, K: 2, SyncFlush: true, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		mb := &kflushing.Microblog{
			Keywords: []string{"all", fmt.Sprintf("k%d", i%7)},
			UserID:   uint64(1 + i%4),
			HasGeo:   true, Lat: 40.7, Lon: -74.0,
			Text: strings.Repeat("x", 100),
		}
		if _, err := st.Ingest(mb); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestToolsResolveSharedLog: on the spatial and user tiers of a kflushd
// data directory, wal, segments, levels and verify find the log files in
// keyword/; verify on the data directory checks every tier, and fails
// when a name of any tier does not resolve.
func TestToolsResolveSharedLog(t *testing.T) {
	dir := sharedLogStore(t)
	home := filepath.Join(dir, "keyword")
	logs, err := disk.LogFileNames(home)
	if err != nil || len(logs) == 0 {
		t.Fatalf("keyword/ holds no log file: %v %v", logs, err)
	}
	for _, attr := range []string{"spatial", "user"} {
		tier := filepath.Join(dir, attr)
		var out bytes.Buffer
		if err := cmdWAL(&out, tier); err != nil {
			t.Fatalf("wal %s: %v", attr, err)
		}
		if !strings.Contains(out.String(), "log kept in "+home) || !strings.Contains(out.String(), logs[0]) {
			t.Fatalf("wal %s does not show the keyword log:\n%s", attr, out.String())
		}
		out.Reset()
		if err := cmdSegments(&out, tier); err != nil {
			t.Fatalf("segments %s: %v", attr, err)
		}
		if !strings.Contains(out.String(), "log v6") {
			t.Fatalf("segments %s names no log file:\n%s", attr, out.String())
		}
		out.Reset()
		if err := cmdLevels(&out, tier); err != nil {
			t.Fatalf("levels %s: %v", attr, err)
		}
		out.Reset()
		if err := cmdVerify(&out, tier); err != nil || !strings.HasPrefix(out.String(), "ok:") {
			t.Fatalf("verify %s: %v\n%s", attr, err, out.String())
		}
	}
	var out bytes.Buffer
	if err := cmdVerify(&out, dir); err != nil {
		t.Fatalf("verify %s: %v", dir, err)
	}
	if n := strings.Count(out.String(), ": ok:"); n != 3 {
		t.Fatalf("verify of the data directory checked %d tiers, want 3:\n%s", n, out.String())
	}
	// A log file every tier names goes missing: the data directory no
	// longer verifies.
	if err := os.Remove(filepath.Join(home, logs[0])); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(&bytes.Buffer{}, dir); err == nil {
		t.Fatal("verify passed with a log file the tiers name missing")
	}
}
