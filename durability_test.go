package kflushing_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/disk"
	"kflushing/internal/wal"
)

func durableOpts() kflushing.Options {
	return kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		K:            5,
		MemoryBudget: 4 << 20,
		SyncFlush:    true,
		Durable:      true,
	}
}

func TestDurableRestartKeepsMemoryContents(t *testing.T) {
	dir := t.TempDir()
	sys, err := kflushing.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if _, err := sys.Ingest(mb(int64(i), fmt.Sprintf("k%d", i%9))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := kflushing.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.StoreRecords != 100 {
		t.Fatalf("recovered %d records, want 100", st.StoreRecords)
	}
	res, err := re.SearchKeyword("k1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit {
		t.Fatal("recovered memory did not serve the query")
	}
	if len(res.Items) != 5 {
		t.Fatalf("got %d items", len(res.Items))
	}
	// Ranking order and IDs survive recovery.
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Score < res.Items[i].Score {
			t.Fatal("recovered answers not ranked")
		}
	}
	// New ingests continue past the recovered ID space.
	id, err := re.Ingest(mb(101, "k1"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 100 {
		t.Fatalf("new ID %d collides with recovered records", id)
	}
}

func TestDurableCrashRecoveryFromTornWAL(t *testing.T) {
	dir := t.TempDir()
	sys, err := kflushing.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := sys.Ingest(mb(int64(i), "crashkey")); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: no Close; tear the newest log file mid-record.
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.kfw"))
	if err != nil || len(files) == 0 {
		t.Fatalf("wal files: %v err=%v", files, err)
	}
	newest := files[len(files)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := kflushing.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	// The torn final record is lost; everything else survives.
	if st.StoreRecords != 49 {
		t.Fatalf("recovered %d records, want 49", st.StoreRecords)
	}
	res, err := re.SearchKeyword("crashkey", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit || len(res.Items) != 5 {
		t.Fatalf("hit=%v items=%d", res.MemoryHit, len(res.Items))
	}
	if res.Items[0].MB.Timestamp != 49 {
		t.Fatalf("newest surviving record ts=%d, want 49", res.Items[0].MB.Timestamp)
	}
}

func TestDurableRecoveryAfterFlushesDeduplicates(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.MemoryBudget = 64 << 10 // force flushing
	sys, err := kflushing.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1500; i++ {
		if _, err := sys.Ingest(mb(int64(i), fmt.Sprintf("k%d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().Disk.Segments == 0 {
		t.Fatal("expected flushed segments")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := kflushing.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Queries across recovered memory + disk see each record once.
	res, err := re.Search([]string{"k1"}, kflushing.OpSingle, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[kflushing.ID]bool{}
	for _, it := range res.Items {
		if seen[it.MB.ID] {
			t.Fatalf("duplicate record %d in answer", it.MB.ID)
		}
		seen[it.MB.ID] = true
	}
	// The newest record for k1 must be present and ranked first.
	want := int64(0)
	for i := 1; i <= 1500; i++ {
		if i%7 == 1 {
			want = int64(i)
		}
	}
	if int64(res.Items[0].MB.Timestamp) != want {
		t.Fatalf("newest k1 record ts=%d, want %d", res.Items[0].MB.Timestamp, want)
	}
}

// TestIDsNeverReusedAcrossReopen pins the ID high-water mark the disk
// tier keeps in its manifest. The tier holds every evicted record and
// search deduplicates memory ∪ disk by ID, so an ID handed out twice
// makes one of the two records unreachable. Before the mark existed a
// durable reopen resumed from the highest ID the log replayed — the
// clean-shutdown snapshot holds only resident records, and under a
// non-temporal ranking those are not the newest — and a non-durable
// reopen resumed from zero.
func TestIDsNeverReusedAcrossReopen(t *testing.T) {
	rankers := map[string]kflushing.Ranker{"temporal": kflushing.Temporal, "popularity": kflushing.Popularity}
	for _, durable := range []bool{true, false} {
		for rname, ranker := range rankers {
			for _, pol := range []kflushing.PolicyKind{
				kflushing.PolicyKFlushing, kflushing.PolicyKFlushingMK, kflushing.PolicyFIFO, kflushing.PolicyLRU,
			} {
				t.Run(fmt.Sprintf("durable=%v/%s/%s", durable, rname, pol), func(t *testing.T) {
					opt := kflushing.Options{
						Policy: pol, K: 2, MemoryBudget: 8 << 10, FlushFraction: 1,
						SyncFlush: true, Durable: durable, Ranker: ranker,
					}
					dir := t.TempDir()
					sys, err := kflushing.Open(dir, opt)
					if err != nil {
						t.Fatal(err)
					}
					const n = 500
					var last kflushing.ID
					for i := 1; i <= n; i++ {
						m := mb(int64(i), fmt.Sprintf("k%d", i%7))
						m.Followers = uint32(n - i) // the newest record ranks lowest by popularity
						if last, err = sys.Ingest(m); err != nil {
							t.Fatal(err)
						}
					}
					// Evict what the policy will let go of, the newest records
					// included; without a log nothing else survives the close.
					for i := 0; i < 20 && sys.Stats().StoreRecords > 0; i++ {
						if _, err := sys.FlushNow(); err != nil {
							t.Fatal(err)
						}
					}
					if resident := sys.Stats().StoreRecords; !durable && resident != 0 {
						t.Fatalf("%d records still resident: the newest IDs may not be on disk", resident)
					}
					if err := sys.Close(); err != nil {
						t.Fatal(err)
					}

					re, err := kflushing.Open(dir, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer re.Close()
					id, err := re.Ingest(mb(n+1, "k1"))
					if err != nil {
						t.Fatal(err)
					}
					if id <= last {
						t.Fatalf("ID %d handed out again after reopen (highest before: %d)", id, last)
					}
				})
			}
		}
	}

	// The log keeps no file for the sake of the highest ID: the file
	// framing it drains like any other — here every file does, after
	// reference frames took long-lived records' replay over — and the
	// reopen, which then replays nothing, resumes past the manifest's
	// high-water mark.
	t.Run("durable=true/temporal/kflushing/high-water-file-drained", func(t *testing.T) {
		opt := kflushing.Options{K: 2, MemoryBudget: 24 << 10, FlushFraction: 0.25, SyncFlush: true, Durable: true}
		rec := func(keys ...string) *kflushing.Microblog {
			return &kflushing.Microblog{Keywords: keys, Text: strings.Repeat("x", 200)}
		}
		dir := t.TempDir()
		sys, err := kflushing.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		// A pair of records under a key of its own every 16 records, every
		// such key searched after every ingest: full entries, always the
		// most recently queried, so they outlive the files they were
		// framed in and the log references them.
		var sticky []string
		var last kflushing.ID
		for i := 1; i <= 1200; i++ {
			if i%16 == 1 {
				sticky = append(sticky, fmt.Sprintf("s%d", i))
				for j := 0; j < 2; j++ {
					if _, err := sys.Ingest(rec("all", sticky[len(sticky)-1])); err != nil {
						t.Fatal(err)
					}
				}
			}
			if last, err = sys.Ingest(rec("all", fmt.Sprintf("u%d", i))); err != nil {
				t.Fatal(err)
			}
			for _, key := range sticky {
				if _, err := sys.SearchKeyword(key, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := sys.Stats().WAL.ReferencedRecords; n == 0 {
			t.Fatal("the run never referenced a record")
		}
		for i := 0; i < 100 && sys.Stats().StoreRecords > 0; i++ {
			if _, err := sys.FlushNow(); err != nil {
				t.Fatal(err)
			}
		}
		if n := sys.Stats().StoreRecords; n != 0 {
			t.Fatalf("%d records still resident", n)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := disk.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		files, err := wal.Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		framed := false
		for _, f := range files {
			if !slices.Contains(m.Drained, f.Name) {
				t.Fatalf("%s is not drained with nothing in memory", f.Name)
			}
			framed = framed || f.MaxID == uint64(last)
		}
		if !framed {
			t.Fatalf("no log file on disk frames the highest ID %d", last)
		}

		re, err := kflushing.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if n := re.Stats().StoreRecords; n != 0 {
			t.Fatalf("reopen replayed %d records from drained files", n)
		}
		id, err := re.Ingest(rec("k1"))
		if err != nil {
			t.Fatal(err)
		}
		if id <= last {
			t.Fatalf("ID %d handed out again after reopen (highest before: %d)", id, last)
		}
	})
}
