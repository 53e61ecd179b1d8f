//go:build failpoint

package engine

import (
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/failpoint"
)

// TestDirectoryEntriesDurable records the steps the durable-file seam
// takes while a durable engine with a synced log ingests past log
// rotations, flushes, compacts, reclaims a log file through a reference
// page, and closes. Every file in the directory at the end must have had
// its directory fsynced after it took its name — a log file before its
// first append, since an ack against it must survive power loss. A
// missing directory fsync is a file a power cut can take away with
// everything acked against it.
func TestDirectoryEntriesDurable(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	dir := t.TempDir()
	cfg := reclaimConfig(dir, 24<<10, true, alloc.PolicyPooled)
	cfg.DiskLevelFanout = 2
	cfg.WALOptions.SyncEvery = 1
	stop := failpoint.RecordFiles()
	t.Cleanup(func() { stop() })
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous budget cycles: each seals the active log file — a
	// rotation — and installs a directory; a full L0 merges; and reclaim
	// lists an old file's survivors in a reference page.
	const batch = 8
	for i := 0; ; i += batch {
		if _, err := eng.IngestBatch(soakBatch(i, batch)); err != nil {
			t.Fatal(err)
		}
		if eng.wal.Stats().ReferencedRecords > 0 && eng.tier.Stats().Compactions > 0 {
			break
		}
		if i > 100*(24<<10)/soakText {
			t.Fatalf("after %d records: wal %+v, tier %+v; want a compaction and a reclaim",
				i+batch, eng.wal.Stats(), eng.tier.Stats())
		}
	}
	if _, err := eng.IngestBatch(soakBatch(1<<20, batch)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	steps := stop()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := 0
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if filepath.Ext(path) == ".kfw" {
			logs++
		}
		named := -1
		for i, s := range steps {
			if s.Op == failpoint.FileCreated && s.Path == path {
				named = i
			}
		}
		if named < 0 {
			t.Errorf("%s is in the directory, but never took its name through the seam", e.Name())
			continue
		}
		synced := false
		for _, s := range steps[named+1:] {
			if s.Op == failpoint.DirSynced && s.Path == dir {
				synced = true
				break
			}
			if s.Op == failpoint.FileAppended && s.Path == path {
				break
			}
		}
		if !synced {
			t.Errorf("%s took its name, then an append or the end, with no directory fsync in between", e.Name())
		}
	}
	if logs < 2 {
		t.Fatalf("%d log files at the end, want the rotations' files", logs)
	}
}
