package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/blackbox"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// reclaimConfig is a durable keyword engine whose log rotates — and so
// reclaims — every budget's worth of frames.
func reclaimConfig(dir string, budget int64, syncFlush bool, ap alloc.Policy) Config[string] {
	return Config[string]{
		K:             3,
		MemoryBudget:  budget,
		FlushFraction: 0.25,
		Attr:          attr.Keyword(),
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       dir,
		Durable:       true,
		Policy:        policy.Choice[string]{Policy: core.New[string](), TrackOverK: true},
		SyncFlush:     syncFlush,
		AllocPolicy:   ap,
	}
}

// soakText is the payload every soak record carries.
const soakText = 400

// soakBatch builds records i..i+n-1: every record carries the hot key
// "all" (so one search enumerates everything), one of 16 warm keys, and
// a key shared by a handful of neighbours, giving each flush phase work.
func soakBatch(i, n int) []*types.Microblog {
	mbs := make([]*types.Microblog, n)
	for j := range mbs {
		r := i + j
		mbs[j] = &types.Microblog{
			Keywords: []string{"all", fmt.Sprintf("w%d", r%16), fmt.Sprintf("u%d", r/3)},
			Text:     strings.Repeat("x", soakText),
		}
	}
	return mbs
}

// undrainedUsage sums the log files on disk the tier has not marked
// drained: the files the log still scans at replay, which its table must
// match file for file.
func undrainedUsage(t *testing.T, eng *Engine[string]) (files int, bytes int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(eng.cfg.DiskDir, "wal-*.kfw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		seq, ok := disk.ParseLogName(p)
		if !ok || eng.stream.logs.Drained(seq) {
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		files++
		bytes += info.Size()
	}
	return files, bytes
}

// checkNoBlocks fails if a durable engine wrote a record block: its
// flushes name log files.
func checkNoBlocks(t *testing.T, dir string) {
	t.Helper()
	if blocks, _ := filepath.Glob(filepath.Join(dir, "blk-*.kfs")); len(blocks) != 0 {
		t.Fatalf("a durable engine wrote record blocks %v", blocks)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkCrashCopy opens an engine on a copy of the directory — what a
// kill -9 at this instant would leave — and requires every acknowledged
// ID back, once.
func checkCrashCopy(t *testing.T, cfg Config[string], acked int) {
	t.Helper()
	dirCopy := t.TempDir()
	copyTree(t, cfg.DiskDir, dirCopy)
	cfg.DiskDir = dirCopy
	cfg.Clock = clock.NewLogical(1, 1)
	cfg.Policy.Policy = core.New[string]()
	re, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen on a mid-run copy: %v", err)
	}
	defer re.Close()
	res, err := re.Search(query.Request[string]{Keys: []string{"all"}, K: acked + 100})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[types.ID]bool, len(res.Items))
	for _, it := range res.Items {
		if seen[it.MB.ID] {
			t.Fatalf("record %d answered twice after recovery", it.MB.ID)
		}
		seen[it.MB.ID] = true
	}
	for id := 1; id <= acked; id++ {
		if !seen[types.ID(id)] {
			t.Fatalf("acked record %d lost (%d acked, %d recovered)", id, acked, len(seen))
		}
	}
	if st := re.wal.Stats(); st.LiveRecords != re.store.Len() {
		t.Fatalf("after recovery %d covers for %d memory-resident records", st.LiveRecords, re.store.Len())
	}
}

// TestWALReclaimSoak ingests two hundred budgets' worth of payload
// through a small, deterministic engine and checks, batch by batch,
// that what a recovery reads — the undrained files and the frames their
// reference frames list — stays within three budgets, that the claims
// table and the undrained files on disk agree file for file (a covered
// file is never missing, an uncovered sealed one never stays undrained),
// that covers equal memory, that no record block is written, and — on
// copies taken mid-run — that a crash loses nothing. The whole log grows
// with history, by design: it is the record store.
func TestWALReclaimSoak(t *testing.T) {
	for _, ap := range []alloc.Policy{alloc.PolicyPooled, alloc.PolicyHeap} {
		ap := ap
		t.Run("alloc="+ap.String(), func(t *testing.T) {
			const (
				budget = 24 << 10
				batch  = 8
			)
			total := 200 * budget / soakText
			if testing.Short() {
				total /= 8
			}
			cfg := reclaimConfig(t.TempDir(), budget, true, ap)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var peak, peakRef int64
			for i := 0; i < total; i += batch {
				if _, err := eng.IngestBatch(soakBatch(i, batch)); err != nil {
					t.Fatal(err)
				}
				files, bytes := undrainedUsage(t, eng)
				st := eng.wal.Stats()
				peak, peakRef = max(peak, st.Bytes), max(peakRef, st.ReferencedBytes)
				if st.Bytes > 3*budget {
					t.Fatalf("after %d records a recovery reads %d bytes (%d in %d undrained files), over 3x the %d budget",
						i+batch, st.Bytes, bytes, files, budget)
				}
				if st.Files != files || st.Bytes-st.ReferencedBytes != bytes {
					t.Fatalf("after %d records the table says %d files / %d bytes, the directory %d / %d",
						i+batch, st.Files, st.Bytes-st.ReferencedBytes, files, bytes)
				}
				if st.LiveRecords != eng.store.Len() {
					t.Fatalf("after %d records %d covers for %d memory-resident records",
						i+batch, st.LiveRecords, eng.store.Len())
				}
				if n := i + batch; n == total/3/batch*batch || n == 2*total/3/batch*batch {
					checkCrashCopy(t, cfg, n)
				}
			}
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			checkNoBlocks(t, cfg.DiskDir)
			st := eng.wal.Stats()
			if st.ReferencedRecords == 0 || peakRef == 0 || st.ReclaimedBytes == 0 {
				t.Fatalf("soak never reclaimed: %+v", st)
			}
			// Every reclaimed file leaves one wal_reclaim event naming it
			// and the survivors referenced out of it.
			reclaims := 0
			for _, ev := range eng.Blackbox().EventsOf(blackbox.SubWAL) {
				if ev.Event == "wal_reclaim" {
					reclaims++
					if ev.Args["file_seq"] < 0 || ev.Args["survivors"] < 0 {
						t.Fatalf("malformed wal_reclaim event: %+v", ev)
					}
				}
			}
			if reclaims == 0 {
				t.Fatal("no wal_reclaim event in the flight recorder")
			}
			// Hundreds of budget cycles, every one whole and its timings
			// adding up (flushLog checks them).
			log := flushLog(t, eng)
			if len(log) < 100 {
				t.Fatalf("flush log holds %d cycles after a %d-record soak", len(log), total)
			}
			for _, c := range log {
				if !c.Complete || c.Trigger != "budget" || len(c.Phases) == 0 {
					t.Fatalf("soak cycle %+v, want a complete budget cycle with its phases", c)
				}
			}
			t.Logf("records=%d peak_replay=%d (%.2fx budget) referenced=%d drained=%d",
				total, peak, float64(peak)/budget, st.ReferencedRecords, st.ReclaimedBytes)
			checkCrashCopy(t, cfg, total/batch*batch)
		})
	}
}

// TestWALReclaimConcurrent runs writers, readers and background
// flushing through the pipeline while reclaim references and drains,
// at 1, 2 and 4 Ps. Fault-injection and race builds turn a negative
// claim count or an unsynchronized LogSeq into a failure on the spot;
// at quiescence every claim must belong to a memory-resident record.
func TestWALReclaimConcurrent(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const (
				budget  = 96 << 10
				writers = 4
				readers = 2
				batch   = 16
			)
			perWriter := 3072
			if testing.Short() {
				perWriter = 1024
			}
			cfg := reclaimConfig(t.TempDir(), budget, false, alloc.PolicyPooled)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var wg sync.WaitGroup
			var stop atomic.Bool
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i += batch {
						if _, err := eng.IngestBatch(soakBatch(w*perWriter+i, batch)); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						// Nothing slows a writer down by itself; without a
						// pause flushing is outrun, everything logged stays
						// live, and there is nothing to reclaim.
						if i/batch%8 == 7 {
							if _, err := eng.FlushNow(); err != nil {
								t.Errorf("writer %d: FlushNow: %v", w, err)
								return
							}
						}
					}
				}(w)
			}
			var rg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func(r int) {
					defer rg.Done()
					for i := 0; !stop.Load(); i++ {
						key := fmt.Sprintf("w%d", (i+r)%16)
						if _, err := eng.Search(query.Request[string]{Keys: []string{key}, K: 3}); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						if st := eng.wal.Stats(); st.LiveRecords < 0 {
							t.Errorf("negative claim total %d", st.LiveRecords)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			stop.Store(true)
			rg.Wait()

			// Quiescence: one more cycle under the gate; it completes its
			// batch, and every cycle before it did, so nothing is in
			// flight afterwards.
			if _, err := eng.FlushNow(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			st := eng.wal.Stats()
			if st.LiveRecords != eng.store.Len() {
				t.Fatalf("at quiescence %d covers for %d memory-resident records", st.LiveRecords, eng.store.Len())
			}
			if st.ReclaimedBytes == 0 {
				t.Fatalf("nothing reclaimed under load: %+v", st)
			}
			files, bytes := undrainedUsage(t, eng)
			if st.Files != files || st.Bytes-st.ReferencedBytes != bytes {
				t.Fatalf("table says %d files / %d bytes, directory %d / %d", st.Files, st.Bytes-st.ReferencedBytes, files, bytes)
			}
			// Background compaction unlinks segments as it goes; let it
			// finish so the copy below is one consistent image.
			if err := eng.CompactNow(); err != nil {
				t.Fatal(err)
			}
			checkCrashCopy(t, cfg, writers*perWriter/batch*batch)
		})
	}
}
