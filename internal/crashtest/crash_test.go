//go:build failpoint

package crashtest

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/attr"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/index"
	"kflushing/internal/server"
	"kflushing/internal/wal"
)

// childOptions is the configuration both the crashing child and the
// verifying parent open the store with: a budget small enough that the
// workload flushes many times (reaching the segment-write, compaction
// and multi-phase flush sites), k=2 so kFlushing trims aggressively,
// per-append WAL fsync so an acknowledged ingest is durable by
// definition, and synchronous flushing so every run is deterministic.
func childOptions() kflushing.Options {
	return kflushing.Options{
		Policy: kflushing.PolicyKFlushing,
		K:      2,
		// Small enough that the log outgrows memory and its reclaim lists
		// survivors by reference frame (the wal/reference/* sites) three
		// times a run; at 24 KiB, once a record was charged 144 B rather
		// than 160, it never did.
		MemoryBudget:  20 << 10,
		FlushFraction: 0.9,
		SyncFlush:     true,
		Durable:       true,
		WALSyncEvery:  1,
	}
}

// TestCrashChild is the workload the matrix crashes: it is only run as a
// re-exec'd child process with the failpoint environment inherited. Two
// durable store sessions back to back exercise ingest,
// inline flushing, log sealing and draining, compaction, close, and
// reopen (log recovery); after every acknowledged batch the returned IDs
// are appended and fsynced to the ack file, so the parent knows exactly
// which records the store promised to keep. A last, non-durable session
// in a directory of its own exercises the record-block flush, which a
// durable store no longer writes; it promises nothing across a crash.
// Last, a durable three-attribute store (server.Store) in a directory of
// its own runs the shared log: one append per batch, admitted by the
// keyword, spatial and user engines in turn, and every attribute's
// flushes naming the one log's files; its acknowledgements go to an ack
// file of their own.
func TestCrashChild(t *testing.T) {
	if os.Getenv("CRASHTEST_CHILD") != "1" {
		t.Skip("crash-matrix child workload; driven by TestCrashMatrix")
	}
	dir := os.Getenv("CRASHTEST_DIR")
	ackPath := os.Getenv("CRASHTEST_ACK")
	if dir == "" || ackPath == "" {
		t.Fatal("CRASHTEST_DIR / CRASHTEST_ACK not set")
	}
	if os.Getenv("CRASHTEST_SESSIONS") != "store" {
		for session, n := range []int{900, 300} {
			ingestSession(t, dir, ackPath, session, n)
		}
		plainSession(t, plainDir(dir), 300)
	}
	storeSession(t, storeDir(dir), storeAcks(ackPath), 600)
}

// storeDir and storeAcks are where the three-attribute session keeps its
// store and its acknowledgements.
func storeDir(dir string) string  { return dir + "-store" }
func storeAcks(ack string) string { return ack + "-store" }

// The store session's records: every one posts from one tile, under
// one of four users, with the keyword "all" or not, so one search per
// attribute value finds every record an attribute indexes.
const storeLat, storeLon = 40.7, -74.0

var storeUsers = []uint64{1, 2, 3, 4}

// storeRecord is record j of the store session: all three attributes,
// or any one or two of them.
func storeRecord(session, j int) *kflushing.Microblog {
	mb := &kflushing.Microblog{Text: strings.Repeat("m", 120)}
	shape := j % 5
	if shape != 2 && shape != 3 {
		mb.Keywords = []string{"all", "u" + strconv.Itoa(session*1_000_000+j)}
	}
	if shape != 1 && shape != 4 {
		mb.HasGeo, mb.Lat, mb.Lon = true, storeLat, storeLon
	}
	if shape != 3 {
		mb.UserID = storeUsers[j%len(storeUsers)]
	}
	return mb
}

// storeSession ingests n records into a durable three-attribute store in
// batches of 8. After every acknowledged batch each record's ID and the
// attributes that reported it ("k", "s", "u") are appended to the ack
// file and fsynced.
func storeSession(t *testing.T, dir, ackPath string, n int) {
	t.Helper()
	st, err := server.OpenStore(dir, childOptions())
	if err != nil {
		t.Fatalf("store session: open: %v", err)
	}
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("store session: open ack file: %v", err)
	}
	defer ack.Close()
	for i := 0; i < n; i += 8 {
		mbs := make([]*kflushing.Microblog, 0, 8)
		for j := i; j < i+8; j++ {
			mbs = append(mbs, storeRecord(2, j))
		}
		res, err := st.IngestBatch(mbs)
		if err != nil {
			t.Fatalf("store session: ingest batch at %d: %v", i, err)
		}
		var buf bytes.Buffer
		for _, r := range res {
			id := max(r.KeywordID, r.SpatialID, r.UserID)
			attrs := ""
			for _, a := range []struct {
				id   kflushing.ID
				name string
			}{{r.KeywordID, "k"}, {r.SpatialID, "s"}, {r.UserID, "u"}} {
				if a.id != 0 {
					if a.id != id {
						t.Fatalf("store session: attributes report different IDs: %+v", r)
					}
					attrs += a.name
				}
			}
			fmt.Fprintln(&buf, uint64(id), attrs)
		}
		if _, err := ack.Write(buf.Bytes()); err != nil {
			t.Fatalf("store session: record acks: %v", err)
		}
		if err := ack.Sync(); err != nil {
			t.Fatalf("store session: sync acks: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store session: close: %v", err)
	}
}

// plainDir is where the non-durable session keeps its store.
func plainDir(dir string) string { return dir + "-plain" }

// plainSession ingests n records into a non-durable store, whose flushes
// write record blocks.
func plainSession(t *testing.T, dir string, n int) {
	t.Helper()
	opt := childOptions()
	opt.Durable, opt.WALSyncEvery = false, 0
	sys, err := kflushing.Open(dir, opt)
	if err != nil {
		t.Fatalf("plain session: open: %v", err)
	}
	for i := 0; i < n; i += 8 {
		var mbs []*kflushing.Microblog
		for j := i; j < i+8; j++ {
			mbs = append(mbs, &kflushing.Microblog{
				Keywords: []string{"all", "b" + strconv.Itoa(j%8), "u" + strconv.Itoa(j)},
				Text:     strings.Repeat("p", 120),
			})
		}
		if _, err := sys.IngestBatch(mbs); err != nil {
			t.Fatalf("plain session: ingest at %d: %v", i, err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("plain session: close: %v", err)
	}
}

// ingestSession opens the store, ingests n records in small batches, and
// closes it. Keywords give every record one hot key ("all"), one warm
// key (8-way bucket) and one unique key, so flushes exercise both the
// over-k trimming of Phase 1 and the under-filled eviction of Phase 2.
//
// Every 16 batches the session also ingests two "sticky" records under
// a key of their own, and every sticky key is searched after every
// batch: a full entry (k=2), and always among the most recently
// queried, so Phase 3 evicts it last and the pair outlives cycle after
// cycle. Each pair pins the log file it was framed in — the log seals a
// file per flush cycle — until the pinned files outgrow the 24 KiB
// budget and a reference frame in the active file takes their
// survivors' replay over. They are what makes the reference path, and
// its crash sites, reachable; everything else is flushed within a cycle
// or two.
func ingestSession(t *testing.T, dir, ackPath string, session, n int) {
	t.Helper()
	sys, err := kflushing.Open(dir, childOptions())
	if err != nil {
		t.Fatalf("session %d: open: %v", session, err)
	}
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("session %d: open ack file: %v", session, err)
	}
	defer ack.Close()
	const batchSize = 8
	var sticky []string
	for i := 0; i < n; i += batchSize {
		mbs := make([]*kflushing.Microblog, 0, batchSize+2)
		if i%(16*batchSize) == 0 {
			sticky = append(sticky, fmt.Sprintf("sticky%d-%d", session, len(sticky)))
			for j := 0; j < 2; j++ {
				mbs = append(mbs, &kflushing.Microblog{
					Keywords: []string{"all", sticky[len(sticky)-1]},
					Text:     strings.Repeat("s", 120),
				})
			}
		}
		for j := i; j < i+batchSize && j < n; j++ {
			mbs = append(mbs, &kflushing.Microblog{
				Keywords: []string{
					"all",
					"b" + strconv.Itoa(j%8),
					"u" + strconv.Itoa(session*1_000_000+j),
				},
				Text: strings.Repeat("x", 120),
			})
		}
		ids, err := sys.IngestBatch(mbs)
		if err != nil {
			t.Fatalf("session %d: ingest batch at %d: %v", session, i, err)
		}
		var buf bytes.Buffer
		for _, id := range ids {
			if id != 0 {
				fmt.Fprintln(&buf, uint64(id))
			}
		}
		if _, err := ack.Write(buf.Bytes()); err != nil {
			t.Fatalf("session %d: record acks: %v", session, err)
		}
		if err := ack.Sync(); err != nil {
			t.Fatalf("session %d: sync acks: %v", session, err)
		}
		for _, key := range sticky {
			if _, err := sys.SearchKeyword(key, 2); err != nil {
				t.Fatalf("session %d: search %s: %v", session, key, err)
			}
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("session %d: close: %v", session, err)
	}
}

// TestCrashMatrix kills the child workload at every registered crash
// site — twice, so the second run crashes during recovery from the
// first — then verifies the store recovers with zero acknowledged-data
// loss and intact structure.
func TestCrashMatrix(t *testing.T) {
	if os.Getenv("CRASHTEST_CHILD") == "1" {
		t.Skip("child process runs only TestCrashChild")
	}
	if testing.Short() {
		t.Skip("crash matrix re-execs the test binary; skipped in -short")
	}
	sites := failpoint.CrashSites()
	if len(sites) < 20 {
		t.Fatalf("only %d crash sites registered, want >= 20", len(sites))
	}
	for _, site := range sites {
		site := site
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			t.Parallel()
			base := t.TempDir()
			dataDir := filepath.Join(base, "data")
			ackPath := filepath.Join(base, "acked")
			// Run 1 must actually die at the site: a site the workload
			// cannot reach would silently drop out of the matrix.
			code, out := runChild(t, dataDir, ackPath, site)
			if code != failpoint.CrashExitCode {
				t.Fatalf("run 1 exited %d, want %d — site not reached or child failed:\n%s",
					code, failpoint.CrashExitCode, out)
			}
			// Run 2 re-arms the same site over the crashed state: either
			// recovery itself passes the site and dies again (the double
			// crash), or the site is no longer on the path and the
			// workload completes.
			code, out = runChild(t, dataDir, ackPath, site)
			if code != failpoint.CrashExitCode && code != 0 {
				t.Fatalf("run 2 exited %d, want %d or 0:\n%s",
					code, failpoint.CrashExitCode, out)
			}
			// Run 3 crashes on the site's 5th hit instead of the first,
			// so hot sites (appends, segment writes, flush phases) die
			// mid-workload with acknowledged batches already on the line;
			// sites hit fewer than 5 times complete cleanly.
			code, out = runChild(t, dataDir, ackPath, site+"=crash(5)")
			if code != failpoint.CrashExitCode && code != 0 {
				t.Fatalf("run 3 exited %d, want %d or 0:\n%s",
					code, failpoint.CrashExitCode, out)
			}
			verifyRecovered(t, dataDir, ackPath)
			if strings.HasPrefix(site, "wal/reference/") {
				verifyReferenced(t, dataDir)
			}
		})
	}
}

// TestCrashMatrixStore is TestCrashMatrix with a child that runs the
// three-attribute store session alone, so every site a durable store
// passes kills it there first: a crash in the shared log's ingest,
// seal, flush and recovery paths while all three attributes depend on
// it. The sites only a keyword system's workload reaches — the record
// block of a non-durable flush, the reference frames of a reclaim — are
// left to TestCrashMatrix.
func TestCrashMatrixStore(t *testing.T) {
	if os.Getenv("CRASHTEST_CHILD") == "1" {
		t.Skip("child process runs only TestCrashChild")
	}
	if testing.Short() {
		t.Skip("crash matrix re-execs the test binary; skipped in -short")
	}
	t.Setenv("CRASHTEST_SESSIONS", "store")
	for _, site := range failpoint.CrashSites() {
		if storeUnreached[site] {
			continue
		}
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			base := t.TempDir()
			dataDir := filepath.Join(base, "data")
			ackPath := filepath.Join(base, "acked")
			if code, out := runChild(t, dataDir, ackPath, site); code != failpoint.CrashExitCode {
				t.Fatalf("run 1 exited %d, want %d — site not reached or child failed:\n%s",
					code, failpoint.CrashExitCode, out)
			}
			for _, spec := range []string{site, site + "=crash(5)"} {
				if code, out := runChild(t, dataDir, ackPath, spec); code != failpoint.CrashExitCode && code != 0 {
					t.Fatalf("%s: exited %d, want %d or 0:\n%s", spec, code, failpoint.CrashExitCode, out)
				}
			}
			verifyStore(t, storeDir(dataDir), storeAcks(ackPath))
		})
	}
}

// storeUnreached are the crash sites the store session alone never
// passes on its first run: it reclaims no log file, writes no record
// block, and starts from an empty directory.
var storeUnreached = map[string]bool{
	failpoint.WALReferenceAppended: true, failpoint.WALReferenceSynced: true,
	failpoint.DiskSegmentWrite: true, failpoint.DiskBlockAfterRename: true,
	failpoint.RecoverReplayRecord: true,
}

// runChild re-execs this test binary as a crashing child: only
// TestCrashChild runs, with the failpoint armed through the environment
// exactly as a production child process would inherit it. spec is
// either a bare site name (armed as first-hit crash) or a full
// "site=action" spec.
func runChild(t *testing.T, dataDir, ackPath, spec string) (int, string) {
	t.Helper()
	if !strings.Contains(spec, "=") {
		spec += "=crash"
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"CRASHTEST_CHILD=1",
		"CRASHTEST_DIR="+dataDir,
		"CRASHTEST_ACK="+ackPath,
		failpoint.EnvVar+"="+spec,
	)
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("child did not start: %v", err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// verifyRecovered reopens the crashed store with failpoints disarmed and
// checks the zero-data-loss contract, twice, so recovery itself is shown
// to be idempotent. An undrained log file unlinked anywhere in the runs
// shows up here as a lost acknowledged record: its frames were the only
// copy of records not yet flushed.
func verifyRecovered(t *testing.T, dataDir, ackPath string) {
	t.Helper()
	acked := readAcked(t, ackPath)
	var prev []uint64
	for pass := 1; pass <= 2; pass++ {
		got := openAndCollect(t, dataDir, pass)
		for id := range acked {
			if !got[id] {
				t.Fatalf("pass %d: acknowledged record %d lost (%d acked, %d recovered)",
					pass, id, len(acked), len(got))
			}
		}
		ids := make([]uint64, 0, len(got))
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if pass == 2 && !slices.Equal(prev, ids) {
			t.Fatalf("recovery not idempotent: pass 1 found %d records, pass 2 %d",
				len(prev), len(ids))
		}
		prev = ids
	}
	// Every directory must parse, every record of the blocks it names
	// decode, every posting resolve and every list be rank-ordered.
	if segs, recs, err := disk.Verify(dataDir); err != nil {
		t.Fatalf("segment verification failed after %d segments / %d records: %v",
			segs, recs, err)
	}
	verifyManifest(t, dataDir)
	verifyLogFiles(t, dataDir)
	verifyCompactionPreservesDiskSet(t, dataDir)

	// The non-durable store: structure only, nothing was promised.
	plain := plainDir(dataDir)
	if _, err := os.Stat(plain); os.IsNotExist(err) {
		return
	}
	opt := childOptions()
	opt.Durable = false
	sys, err := kflushing.Open(plain, opt)
	if err != nil {
		t.Fatalf("plain store: reopen: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("plain store: close: %v", err)
	}
	if segs, recs, err := disk.Verify(plain); err != nil {
		t.Fatalf("plain store: verification failed after %d segments / %d records: %v", segs, recs, err)
	}
	verifyManifest(t, plain)
	verifyCompactionPreservesDiskSet(t, plain)

	verifyStore(t, storeDir(dataDir), storeAcks(ackPath))
}

// verifyStore checks the three-attribute store, twice over: every
// acknowledged ID is found under each attribute that reported it; the
// keyword directory is a complete tier with the store's one log, whose
// files every directory of every tier resolves; and the spatial and user
// directories hold no log file.
func verifyStore(t *testing.T, dir, ackPath string) {
	t.Helper()
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return
	}
	acked := readStoreAcks(t, ackPath)
	for pass := 1; pass <= 2; pass++ {
		st, err := server.OpenStore(dir, childOptions())
		if err != nil {
			t.Fatalf("store pass %d: reopen: %v", pass, err)
		}
		found := map[string]map[uint64]bool{"k": {}, "s": {}, "u": {}}
		collect := func(attr string, res kflushing.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("store pass %d: search: %v", pass, err)
			}
			for _, it := range res.Items {
				id := uint64(it.MB.ID)
				if found[attr][id] {
					t.Fatalf("store pass %d: attribute %s answers record %d twice", pass, attr, id)
				}
				found[attr][id] = true
			}
		}
		res, err := st.SearchKeywords([]string{"all"}, kflushing.OpSingle, 1<<14)
		collect("k", res, err)
		res, err = st.SearchNearby(storeLat, storeLon, 0, 1<<14)
		collect("s", res, err)
		for _, u := range storeUsers {
			res, err = st.SearchUser(u, 1<<14)
			collect("u", res, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("store pass %d: close: %v", pass, err)
		}
		for id, attrs := range acked {
			for _, a := range attrs {
				if !found[string(a)][id] {
					t.Fatalf("store pass %d: acknowledged record %d lost under attribute %c", pass, id, a)
				}
			}
		}
	}
	for _, attr := range []string{"keyword", "spatial", "user"} {
		tierDir := filepath.Join(dir, attr)
		if _, err := disk.Inspect(tierDir); err != nil {
			t.Fatalf("a %s directory names a missing or truncated log file: %v", attr, err)
		}
		if segs, recs, err := disk.Verify(tierDir); err != nil {
			t.Fatalf("%s verification failed after %d segments / %d records: %v", attr, segs, recs, err)
		}
		verifyManifest(t, tierDir)
		if attr == "keyword" {
			verifyLogFiles(t, tierDir)
			continue
		}
		if logs, _ := filepath.Glob(filepath.Join(tierDir, "wal-*")); len(logs) != 0 {
			t.Fatalf("%s holds log files %v: the store keeps one log", attr, logs)
		}
	}
}

// readStoreAcks parses the store session's ack file: an ID and the
// attributes that reported it per line.
func readStoreAcks(t *testing.T, path string) map[uint64]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatalf("read store ack file: %v", err)
	}
	acked := make(map[uint64]string)
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		id, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil || len(fields) != 2 {
			t.Fatalf("bad store ack line %q", line)
		}
		acked[id] = fields[1]
	}
	return acked
}

// verifyLogFiles checks the log files a durable store's directories
// name: every one exists and is the sealed file the directory counted
// frames in (disk.Inspect opens each and checks its frame count against
// the table), every file the manifest lists drained is on disk, and every
// reference frame of an undrained file lists frames that are.
func verifyLogFiles(t *testing.T, dataDir string) {
	t.Helper()
	infos, err := disk.Inspect(dataDir)
	if err != nil {
		t.Fatalf("a directory names a missing or truncated file: %v", err)
	}
	for _, info := range infos {
		for _, b := range info.Blocks {
			if !b.Log {
				t.Fatalf("durable store's %s names record block %s", info.Path, b.Name)
			}
			if _, err := os.Stat(filepath.Join(dataDir, b.Name)); err != nil {
				t.Fatalf("%s names %s: %v", info.Path, b.Name, err)
			}
		}
	}
	m, err := disk.ReadManifest(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Drained {
		if _, err := os.Stat(filepath.Join(dataDir, name)); err != nil {
			t.Fatalf("manifest lists %s drained, but it is gone: %v", name, err)
		}
	}
	if blocks, _ := filepath.Glob(filepath.Join(dataDir, "blk-*.kfs")); len(blocks) != 0 {
		t.Fatalf("durable store wrote record blocks %v", blocks)
	}
	if _, err := wal.Verify(dataDir); err != nil {
		t.Fatalf("a reference frame of an undrained log file does not resolve: %v", err)
	}
}

// verifyReferenced checks that the runs reclaimed through reference
// frames, whose records verifyRecovered found: the log lists records of
// other files.
func verifyReferenced(t *testing.T, dataDir string) {
	t.Helper()
	files, err := wal.Inspect(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, f := range files {
		refs += f.References
	}
	if refs == 0 {
		t.Fatal("no log file holds a reference frame")
	}
}

// verifyManifest checks the leveled tier's manifest after recovery: the
// clean reopens above heal-committed a fresh manifest, so at this point
// it must decode, reference only files that exist, and never list a
// file as both live and retired or on two levels at once. (A crash MID
// manifest write may leave a torn manifest on disk; adoption repairs it
// on the next open, which has already happened here.)
func verifyManifest(t *testing.T, dataDir string) {
	t.Helper()
	m, err := disk.ReadManifest(dataDir)
	if err != nil {
		t.Fatalf("manifest unreadable after recovery (heal-commit missing?): %v", err)
	}
	live := make(map[string]int, len(m.Live))
	for _, e := range m.Live {
		if lvl, dup := live[e.Name]; dup {
			t.Fatalf("manifest lists %s on levels %d and %d", e.Name, lvl, e.Level)
		}
		live[e.Name] = e.Level
		if _, err := os.Stat(filepath.Join(dataDir, e.Name)); err != nil {
			t.Fatalf("manifest live entry %s (L%d) missing on disk: %v", e.Name, e.Level, err)
		}
	}
	for _, name := range m.Retired {
		if lvl, ok := live[name]; ok {
			t.Fatalf("manifest lists %s as retired AND live at L%d", name, lvl)
		}
	}
}

// verifyCompactionPreservesDiskSet opens the crashed-and-recovered disk
// tier directly and compacts everything into one segment: the answer
// set must survive byte-for-byte by ID — compaction over a post-crash
// layout (including duplicates a WAL replay legitimately re-flushed
// into a younger segment) deduplicates instead of dropping or doubling.
func verifyCompactionPreservesDiskSet(t *testing.T, dataDir string) {
	t.Helper()
	tier, err := disk.Open(disk.Config[string]{
		Dir:    dataDir,
		KeysOf: attr.KeywordKeys,
		Encode: attr.KeywordEncode,
	})
	if err != nil {
		t.Fatalf("direct tier open after recovery: %v", err)
	}
	defer func() {
		if err := tier.Close(); err != nil {
			t.Fatalf("tier close: %v", err)
		}
	}()
	collect := func(label string) map[uint64]bool {
		items, err := tier.Search([]string{"all"}, kflushing.OpSingle, 1<<20)
		if err != nil {
			t.Fatalf("%s: disk search: %v", label, err)
		}
		ids := make(map[uint64]bool, len(items))
		for _, it := range items {
			id := uint64(it.MB.ID)
			if ids[id] {
				t.Fatalf("%s: record %d answered twice across levels", label, id)
			}
			ids[id] = true
		}
		return ids
	}
	before := collect("pre-compact")
	if err := tier.CompactAll(); err != nil {
		t.Fatalf("CompactAll on recovered tier: %v", err)
	}
	after := collect("post-compact")
	if len(after) != len(before) {
		t.Fatalf("compaction changed the disk ID set: %d -> %d records", len(before), len(after))
	}
	for id := range before {
		if !after[id] {
			t.Fatalf("record %d lost by post-recovery compaction", id)
		}
	}
}

// openAndCollect recovers the store, fetches every record via the hot
// key, and walks the index asserting the structural invariant no flush
// or recovery may break: every posting points at a store-resident record
// with a positive posting count.
func openAndCollect(t *testing.T, dataDir string, pass int) map[uint64]bool {
	t.Helper()
	sys, err := kflushing.Open(dataDir, childOptions())
	if err != nil {
		t.Fatalf("pass %d: reopen: %v", pass, err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Fatalf("pass %d: close: %v", pass, err)
		}
	}()
	res, err := sys.Search([]string{"all"}, kflushing.OpSingle, 1<<14)
	if err != nil {
		t.Fatalf("pass %d: search: %v", pass, err)
	}
	got := make(map[uint64]bool, len(res.Items))
	for _, it := range res.Items {
		id := uint64(it.MB.ID)
		if got[id] {
			t.Fatalf("pass %d: duplicate record %d in answer", pass, id)
		}
		got[id] = true
	}
	eng := sys.Engine()
	eng.Index().Range(func(e *index.Entry[string]) bool {
		recs, _, _ := e.Probe(-1)
		for _, rec := range recs {
			if rec.PCount() <= 0 {
				t.Fatalf("pass %d: entry %q posting for record %d has pcount %d",
					pass, e.Key(), rec.MB.ID, rec.PCount())
			}
			if eng.Store().Get(rec.MB.ID) == nil {
				t.Fatalf("pass %d: entry %q posting for record %d missing from store",
					pass, e.Key(), rec.MB.ID)
			}
		}
		return true
	})
	return got
}

// readAcked parses the child's ack file: one acknowledged ID per line.
func readAcked(t *testing.T, path string) map[uint64]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Crashed before the first acknowledged batch — nothing was
			// promised, so nothing can be lost.
			return nil
		}
		t.Fatalf("open ack file: %v", err)
	}
	defer f.Close()
	acked := make(map[uint64]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q: %v", line, err)
		}
		acked[id] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read ack file: %v", err)
	}
	return acked
}
