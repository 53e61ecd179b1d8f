package engine

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/wal"
)

// tierFile matches every file a durable store's directory may hold: the
// log's files, flush and merge directories, and the manifest.
var tierFile = regexp.MustCompile(`^(wal-\d{8}\.kfw|(seg|lvl)-\d{8}\.kfs|manifest\.kfm)$`)

// TestDurableFlushWritesNoRecordBytes: on a durable engine the log is
// the record store. Across budget flush cycles (with reclaim),
// CompactNow, CompactAll and a reopen, the tier creates only directories
// and the manifest; every table entry names a sealed log file that is
// on disk; and the log files hold exactly one frame per ingested record,
// the reference frames reclaim wrote, and their frame index — no record
// byte is written twice, or anywhere else.
func TestDurableFlushWritesNoRecordBytes(t *testing.T) {
	const (
		budget = 24 << 10
		total  = 6000
		batch  = 8
	)
	cfg := reclaimConfig(t.TempDir(), budget, true, alloc.PolicyPooled)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i += batch {
		if _, err := eng.IngestBatch(soakBatch(i, batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Metrics.Flushes < 20 || st.WAL.ReferencedRecords == 0 {
		t.Fatalf("%d flush cycles, %d referenced: the run never exercised reclaim", st.Metrics.Flushes, st.WAL.ReferencedRecords)
	}
	checkRecordFiles(t, cfg.DiskDir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Clock, cfg.Policy.Policy = clock.NewLogical(1, 1), core.New[string]()
	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CompactAll(); err != nil {
		t.Fatal(err)
	}
	checkRecordFiles(t, cfg.DiskDir)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := wal.Inspect(cfg.DiskDir)
	if err != nil {
		t.Fatal(err)
	}
	records, refs, size, want := 0, 0, int64(0), int64(0)
	for _, f := range files {
		if !f.Sealed {
			t.Fatalf("%s is not sealed after Close", f.Name)
		}
		records += f.Records
		refs += f.References
		size += f.Bytes
		// Header, index, reference pages, and each record page as the
		// page encoder writes its records.
		index := disk.PageIndex{Off: make([]uint64, f.Pages), First: make([]uint32, f.Pages)}
		want += disk.HeaderSize + int64(len(disk.AppendPageIndex(nil, &index))) + f.ReferenceBytes
		want += recordPageBytes(t, filepath.Join(cfg.DiskDir, f.Name))
	}
	if records != total {
		t.Fatalf("log files hold %d records, want the %d ingested", records, total)
	}
	if refs < int(st.WAL.ReferencedRecords) {
		t.Fatalf("log files list %d references, the run wrote %d", refs, st.WAL.ReferencedRecords)
	}
	if size != want {
		t.Fatalf("log files hold %d bytes, their pages and indexes %d", size, want)
	}
}

// recordPageBytes is what the page encoder writes for the records of
// each record page of the log file at path, one page each.
func recordPageBytes(t *testing.T, path string) int64 {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for pos := disk.HeaderSize; pos < len(img); {
		payload, ok := disk.CheckPage(img[pos:])
		if !ok {
			t.Fatalf("%s: bad page at offset %d", path, pos)
		}
		if !disk.IsPageIndex(payload) && !disk.IsReferences(payload) {
			recs, err := disk.DecodePage(nil, payload)
			if err != nil {
				t.Fatalf("%s: page at offset %d: %v", path, pos, err)
			}
			var x disk.PageIndex
			if n += int64(len(disk.AppendRecordPages(nil, recs, &x))); len(x.Off) != 1 {
				t.Fatalf("%s: the records of the page at offset %d encode as %d pages", path, pos, len(x.Off))
			}
		}
		pos += disk.PageHeaderSize + len(payload)
	}
	return n
}

// checkRecordFiles checks a durable store's directory: only log files,
// directories and the manifest; every directory names log files only,
// each present; and the directories are small beside the records.
func checkRecordFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logBytes, dirBytes int64
	for _, e := range ents {
		if !tierFile.MatchString(e.Name()) {
			t.Fatalf("durable store directory holds %s", e.Name())
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch e.Name()[:4] {
		case "wal-":
			logBytes += info.Size()
		case "seg-", "lvl-":
			dirBytes += info.Size()
		}
	}
	infos, err := disk.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		for _, b := range info.Blocks {
			if !b.Log {
				t.Fatalf("%s names record block %s", info.Path, b.Name)
			}
			if _, err := os.Stat(filepath.Join(dir, b.Name)); err != nil {
				t.Fatalf("%s names %s: %v", info.Path, b.Name, err)
			}
		}
	}
	if 4*dirBytes > logBytes {
		t.Fatalf("directories hold %d bytes beside %d of log files", dirBytes, logBytes)
	}
}
