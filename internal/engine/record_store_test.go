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
		// Header, index, reference pages, and per record page its header
		// and its records' encodings.
		index := disk.PageIndex{Off: make([]uint64, f.Pages), First: make([]uint32, f.Pages)}
		want += disk.HeaderSize + int64(len(disk.AppendPageIndex(nil, &index))) + f.ReferenceBytes +
			disk.PageHeaderSize*int64(f.Pages)
		err := wal.DumpFile(filepath.Join(cfg.DiskDir, f.Name), func(fr disk.FlushRecord) error {
			want += int64(len(disk.EncodeRecord(nil, fr)))
			return nil
		}, func([]disk.LogRef) error {
			want -= disk.PageHeaderSize // counted in ReferenceBytes
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
