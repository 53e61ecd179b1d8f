// Command kflushctl is the offline administration tool for kflushing
// data directories. It operates directly on segment, record-block and
// write-ahead-log files without starting a system.
//
//	kflushctl upgrade <dir>        check a tier or a kflushd data
//	                               directory before this build opens it:
//	                               it reads every format it writes, and
//	                               v5 record files in place, so nothing
//	                               is converted; a retired format is
//	                               refused, naming the file and the
//	                               commit whose upgrade converts it, and
//	                               no file changes
//	kflushctl segments <dir>       list segments (version, records, bloom,
//	                               directory size) and the record files
//	                               each one names, each with its format
//	                               version, records, pages and on-disk
//	                               bytes per record; a log file also with
//	                               its drained mark
//	kflushctl levels <dir>         decode the disk tier's manifest and
//	                               print per-level occupancy, retired
//	                               inputs, drained log files, and
//	                               unreferenced files
//	kflushctl dump <file>          print the records of a blk-* block,
//	                               the pages of a wal-* log file (a
//	                               reference page as one line listing
//	                               its records), or the live records of
//	                               a seg-*/lvl-* directory, as JSON lines
//	kflushctl verify <dir>         decode every record, resolve every
//	                               posting, check every list's ranking,
//	                               resolve every reference page of an
//	                               undrained log file, check the checksum
//	                               of every page read; fail on corruption.
//	                               On a kflushd data directory, every
//	                               attribute's tier
//
// A tier directory of a kflushd data directory other than keyword/
// names the log files of keyword/, where the store keeps its one log:
// segments, levels, verify, compact, probe and wal resolve them there.
//
//	kflushctl compact <dir>        merge every segment's directory into
//	                               one (record files are not rewritten)
//	kflushctl probe <dir> <key> [k]  run one disk search and report the
//	                               miss fast-path counters (Bloom skips,
//	                               directory probes, cache hits)
//	kflushctl wal <dir>            summarize the write-ahead log in a
//	                               store directory: per file the records
//	                               and pages it holds and the records its
//	                               reference pages list
//
// Two subcommands talk to a RUNNING kflushd instead of files:
//
//	kflushctl trace <base-url> <q> [k]  run one traced keyword search
//	                               (?trace=1) and pretty-print the trace
//	kflushctl flushlog <base-url> [n]   fold the flight recorder's flush
//	                               events into one line per cycle, with
//	                               its phases and stages
//	                               (/debug/blackbox?subsystem=flush)
//	kflushctl probe <base-url>     report readiness, degraded
//	                               read-only state and the write-ahead
//	                               log's size (/readyz, /stats); exits
//	                               non-zero when not ready
//	kflushctl top <base-url> [interval] [count]  live watch: scrape
//	                               /metrics twice per refresh and render
//	                               per-attribute ingest rate, QPS, memory
//	                               and disk-cache hit ratios, flush
//	                               batches in flight, compaction backlog,
//	                               and the degraded flag
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"kflushing"
	"kflushing/internal/blackbox"
	"kflushing/internal/disk"
	"kflushing/internal/wal"
)

func main() {
	log.SetFlags(0)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "upgrade":
		err = disk.Upgrade(args[1])
	case "segments":
		err = cmdSegments(os.Stdout, args[1])
	case "levels":
		err = cmdLevels(os.Stdout, args[1])
	case "dump":
		err = cmdDump(os.Stdout, args[1])
	case "verify":
		err = cmdVerify(os.Stdout, args[1])
	case "compact":
		err = disk.CompactDir(args[1])
		if err == nil {
			err = cmdSegments(os.Stdout, args[1])
		}
	case "probe":
		if len(args) == 2 {
			// One operand: probe a RUNNING kflushd for readiness and
			// degraded read-only mode instead of a data directory.
			err = cmdProbeServer(args[1])
			break
		}
		if len(args) < 3 {
			usage()
			os.Exit(2)
		}
		k := 20
		if len(args) > 3 {
			if k, err = strconv.Atoi(args[3]); err != nil || k < 1 {
				log.Fatalf("bad k %q", args[3])
			}
		}
		err = cmdProbe(args[1], args[2], k)
	case "wal":
		err = cmdWAL(os.Stdout, args[1])
	case "trace":
		if len(args) < 3 {
			usage()
			os.Exit(2)
		}
		k := 20
		if len(args) > 3 {
			if k, err = strconv.Atoi(args[3]); err != nil || k < 1 {
				log.Fatalf("bad k %q", args[3])
			}
		}
		err = cmdTrace(args[1], args[2], k)
	case "flushlog":
		n := 20
		if len(args) > 2 {
			if n, err = strconv.Atoi(args[2]); err != nil || n < 1 {
				log.Fatalf("bad count %q", args[2])
			}
		}
		err = cmdFlushLog(args[1], n)
	case "top":
		interval := 2 * time.Second
		if len(args) > 2 {
			if interval, err = time.ParseDuration(args[2]); err != nil || interval <= 0 {
				log.Fatalf("bad interval %q", args[2])
			}
		}
		count := 1
		if len(args) > 3 {
			if count, err = strconv.Atoi(args[3]); err != nil || count < 1 {
				log.Fatalf("bad count %q", args[3])
			}
		}
		err = cmdTop(args[1], interval, count)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func cmdSegments(w io.Writer, dir string) error {
	infos, err := disk.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %4s %10s %10s %10s %12s %8s %7s %12s %10s\n",
		"segment", "ver", "records", "keys", "postings", "dirBytes", "bloomB", "files", "fileBytes", "shadowedB")
	var recs, bytes, shadowed int64
	blocks := map[string]bool{}
	for _, info := range infos {
		fmt.Fprintf(w, "%-20s %4d %10d %10d %10d %12d %8d %7d %12d %10d\n",
			info.Path, info.Version, info.Records, info.Keys, info.Postings,
			info.Bytes, info.BloomBytes, len(info.Blocks), info.BlockBytes, info.ShadowedBytes)
		recs += int64(info.Records)
		bytes += info.Bytes
		shadowed += info.ShadowedBytes
		// Each record file with its format version, records, pages and
		// on-disk bytes per record (page headers and index included); a
		// log file also with its drained mark.
		parts := make([]string, len(info.Blocks))
		for i, b := range info.Blocks {
			parts[i] = fmt.Sprintf("%s v%d %d recs %d pages %.1fB/rec", b.Name, b.Version, b.Records, b.Pages,
				float64(b.Bytes)/float64(max(b.Records, 1)))
			if b.Log {
				mark := "undrained"
				if b.Drained {
					mark = "drained"
				}
				parts[i] = strings.Replace(parts[i], " v", " log v", 1) + " " + mark
			}
		}
		fmt.Fprintf(w, "  files: %s\n", strings.Join(parts, ", "))
		for _, b := range info.Blocks {
			// A set: adoption can leave two directories naming one block.
			blocks[b.Name] = true
		}
	}
	blockBytes, err := fileBytes(disk.LogHome(dir), blocks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d segments, %d records, %d directory bytes; %d record files, %d bytes (%d shadowed)\n",
		len(infos), recs, bytes, len(blocks), blockBytes, shadowed)
	return nil
}

// fileBytes totals the sizes of the named files under dir: the log's
// home, where the record files a durable tier names live (blocks are
// only ever in a tier that keeps its own log, or none).
func fileBytes(dir string, names map[string]bool) (int64, error) {
	var total int64
	for name := range names {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// cmdLevels decodes a tier's manifest and joins it against the
// segment files actually present: per-level occupancy (segments,
// records, bytes of the directories and the blocks they name), retired
// compaction inputs awaiting unlink, drained log files, and segment files
// the manifest does not reference (they would be adopted at the next
// open). Record blocks are not in the manifest. A missing or corrupt
// manifest is surfaced but survivable — open falls back to adoption.
func cmdLevels(w io.Writer, dir string) error {
	infos, err := disk.Inspect(dir)
	if err != nil {
		return err
	}
	byName := make(map[string]disk.SegmentInfo, len(infos))
	for _, info := range infos {
		byName[info.Path] = info
	}
	m, err := disk.ReadManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(w, "no manifest: files will be adopted at the next open, %d segment(s)\n", len(infos))
			return nil
		}
		return fmt.Errorf("%w (an open would fall back to adopting all %d segment file(s))", err, len(infos))
	}
	type levelSum struct {
		segments, records int
		bytes             int64
	}
	levels := map[int]*levelSum{}
	maxLevel := 0
	referenced := make(map[string]bool, len(m.Live)+len(m.Retired))
	missing := 0
	for _, e := range m.Live {
		referenced[e.Name] = true
		ls := levels[e.Level]
		if ls == nil {
			ls = &levelSum{}
			levels[e.Level] = ls
		}
		if e.Level > maxLevel {
			maxLevel = e.Level
		}
		info, ok := byName[e.Name]
		if !ok {
			missing++
			continue
		}
		ls.segments++
		ls.records += info.Records
		ls.bytes += info.Bytes + info.BlockBytes
	}
	fmt.Fprintf(w, "manifest: next_seq=%d max_record_id=%d live=%d retired=%d drained=%d\n",
		m.NextSeq, m.MaxRecordID, len(m.Live), len(m.Retired), len(m.Drained))
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "level", "segments", "records", "bytes")
	for lvl := 0; lvl <= maxLevel; lvl++ {
		ls := levels[lvl]
		if ls == nil {
			ls = &levelSum{}
		}
		fmt.Fprintf(w, "L%-5d %10d %10d %12d\n", lvl, ls.segments, ls.records, ls.bytes)
	}
	for _, name := range m.Retired {
		referenced[name] = true
		fmt.Fprintf(w, "retired %s (awaiting unlink)\n", name)
	}
	for _, name := range m.Drained {
		note := ""
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			note = " (gone; pruned at next open)"
		}
		fmt.Fprintf(w, "drained %s%s\n", name, note)
	}
	for _, info := range infos {
		if !referenced[info.Path] {
			fmt.Fprintf(w, "unreferenced %s (%d records; adopted at next open)\n", info.Path, info.Records)
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d live manifest entr(ies) have no segment file — data loss or wrong directory", missing)
	}
	return nil
}

// cmdProbe opens the directory as an attribute-agnostic tier, runs one
// top-k search for the (already encoded) key, and prints the miss
// fast-path counters the search generated: Bloom probes and skipped
// directory lookups, directory probes performed, record preads, and
// read-cache activity. A second identical search is issued to show the
// cache taking over.
func cmdProbe(dir, key string, k int) error {
	tier, err := disk.Open(disk.Config[string]{
		Dir:    dir,
		KeysOf: func(*kflushing.Microblog) []string { return nil },
		Encode: func(s string) string { return s },
		Logs:   disk.NewLogSet(disk.LogHome(dir)),
	})
	if err != nil {
		return err
	}
	defer tier.Close()
	for pass := 1; pass <= 2; pass++ {
		items, err := tier.Search([]string{key}, kflushing.OpSingle, k)
		if err != nil {
			return err
		}
		st := tier.Stats()
		fmt.Printf("pass %d: %d of top-%d found across %d segments\n",
			pass, len(items), k, st.Segments)
		fmt.Printf("  bloom: %d probes, %d directory probes skipped\n",
			st.BloomProbes, st.BloomSkips)
		fmt.Printf("  dir:   %d probes performed\n", st.DirProbes)
		fmt.Printf("  reads: %d preads, cache %d hits / %d misses / %d evictions (%d bytes resident)\n",
			st.RecordReads, st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheBytes)
	}
	return nil
}

// cmdProbeServer asks a running kflushd whether it can serve writes:
// the /readyz verdict with its per-attribute reasons, and each attribute
// system's degraded read-only state from /stats. It exits non-zero when
// the server is not ready, so it scripts as a health check.
func cmdProbeServer(base string) error {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cli := &http.Client{Timeout: 30 * time.Second}
	resp, err := cli.Get(base + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ready struct {
		Ready   bool                            `json:"ready"`
		Reasons map[string]string               `json:"reasons"`
		Disk    map[string]kflushing.DiskHealth `json:"disk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return fmt.Errorf("GET /readyz: %s: %w", resp.Status, err)
	}
	fmt.Printf("readyz: %s\n", resp.Status)
	attrs := make([]string, 0, len(ready.Reasons))
	for a := range ready.Reasons {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		fmt.Printf("  %-8s %s\n", a, ready.Reasons[a])
	}

	// Disk health per attribute: level occupancy, compaction backlog,
	// and the batch in flight (pipeline_depth, 0 or 1) — failing or
	// lagging compaction shows up here as a persistently positive backlog.
	attrs = attrs[:0]
	for a := range ready.Disk {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		h := ready.Disk[a]
		segs := 0
		var parts []string
		for _, lv := range h.Levels {
			segs += lv.Segments
			parts = append(parts, fmt.Sprintf("L%d=%d", lv.Level, lv.Segments))
		}
		line := fmt.Sprintf("%-8s %-8s %d segment(s)", a, h.Layout, segs)
		if len(parts) > 0 {
			line += " [" + strings.Join(parts, " ") + "]"
		}
		if h.CompactionBacklog > 0 {
			line += fmt.Sprintf(" backlog=%d", h.CompactionBacklog)
		}
		if h.PipelineDepth > 0 {
			line += fmt.Sprintf(" pipeline_depth=%d", h.PipelineDepth)
		}
		fmt.Println(line)
	}

	var stats map[string]struct {
		Degraded       bool
		DegradedReason string
		MemoryBudget   int64
		WAL            struct {
			Bytes             int64
			Files             int
			LiveRecords       int64
			ReferencedRecords int64
			ReclaimedBytes    int64
		}
	}
	if err := getJSON(base, "/stats", &stats); err != nil {
		return err
	}
	attrs = attrs[:0]
	for a := range stats {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	// The store's one log covers every attribute's memory.
	var budget int64
	for _, a := range attrs {
		budget += stats[a].MemoryBudget
	}
	for _, a := range attrs {
		st := stats[a]
		if st.Degraded {
			fmt.Printf("%-8s DEGRADED read-only: %s\n", a, st.DegradedReason)
		} else {
			fmt.Printf("%-8s writable\n", a)
		}
		// The log is reclaimed online; what a recovery would read against
		// the memory budgets it covers shows whether reclaim keeps up. The
		// attribute that carries the log reports it.
		if w := st.WAL; w.Files > 0 {
			fmt.Printf("%-8s wal %d file(s) %d bytes (%.2fx budget) live=%d referenced=%d reclaimed_bytes=%d\n",
				a, w.Files, w.Bytes, float64(w.Bytes)/float64(max(budget, 1)),
				w.LiveRecords, w.ReferencedRecords, w.ReclaimedBytes)
		}
	}
	if !ready.Ready {
		return fmt.Errorf("server not ready")
	}
	return nil
}

func cmdDump(w io.Writer, path string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	record := func(fr disk.FlushRecord) error {
		return enc.Encode(map[string]any{
			"id":        fr.MB.ID,
			"timestamp": fr.MB.Timestamp,
			"user_id":   fr.MB.UserID,
			"keywords":  fr.MB.Keywords,
			"text":      fr.MB.Text,
			"score":     fr.Score,
		})
	}
	if !strings.HasPrefix(filepath.Base(path), "wal-") {
		return disk.DumpSegment(path, record)
	}
	// A log file page by page: a record page is a line per record, a
	// reference page one line, its records grouped by the file holding
	// them.
	type group struct {
		File     string   `json:"file"`
		Ordinals []uint32 `json:"ordinals"`
	}
	return wal.DumpFile(path, record, func(refs []disk.LogRef) error {
		var groups []group
		for _, r := range refs {
			if n := len(groups); n == 0 || groups[n-1].File != disk.LogName(r.Seq) {
				groups = append(groups, group{File: disk.LogName(r.Seq)})
			}
			g := &groups[len(groups)-1]
			g.Ordinals = append(g.Ordinals, r.Ord)
		}
		return enc.Encode(map[string]any{"references": groups})
	})
}

func cmdVerify(w io.Writer, dir string) error {
	tiers := tierDirs(dir)
	if tiers == nil {
		return verifyTier(w, dir)
	}
	for _, t := range tiers {
		fmt.Fprintf(w, "%s: ", filepath.Base(t))
		if err := verifyTier(w, t); err != nil {
			return fmt.Errorf("%s: %w", t, err)
		}
	}
	return nil
}

// verifyTier verifies one tier directory: every name its directories
// carry resolves, in the log's home for a log file.
func verifyTier(w io.Writer, dir string) error {
	segs, recs, err := disk.Verify(dir)
	if err != nil {
		return fmt.Errorf("verification FAILED after %d segments / %d records: %w", segs, recs, err)
	}
	refs := 0
	if home := disk.LogHome(dir); home == dir {
		if refs, err = wal.Verify(dir); err != nil {
			return fmt.Errorf("verification FAILED after %d log references: %w", refs, err)
		}
	}
	fmt.Fprintf(w, "ok: %d segments, %d records verified, %d log references resolved\n", segs, recs, refs)
	return nil
}

// tierDirs returns the attribute tiers of a kflushd data directory, its
// subdirectories holding a manifest, or nil when dir is a tier itself.
func tierDirs(dir string) []string {
	if _, err := os.Stat(filepath.Join(dir, "manifest.kfm")); err == nil {
		return nil
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "*", "manifest.kfm")) // fails only on a bad pattern
	var tiers []string
	for _, m := range manifests {
		tiers = append(tiers, filepath.Dir(m))
	}
	return tiers
}

// cmdWAL summarizes the log files of a store directory — each with its
// version, the records and pages it holds and the records its reference
// pages list, whether it is sealed and whether the manifest marks it
// drained (a record file of the tier, not scanned by a replay). The
// summary's replayable count is what a recovery delivers: the records
// and references of the undrained files. It changes nothing.
func cmdWAL(w io.Writer, dir string) error {
	if home := disk.LogHome(dir); home != dir {
		fmt.Fprintf(w, "log kept in %s\n", home)
		dir = home
	}
	m, _ := disk.ReadManifest(dir) // no manifest: nothing is drained
	drained := make(map[string]bool, len(m.Drained))
	for _, name := range m.Drained {
		drained[name] = true
	}
	files, err := wal.Inspect(dir)
	if err != nil {
		return fmt.Errorf("wal %s: %w", dir, err)
	}
	var replay, records, refs int
	var refBytes int64
	var minID, maxID uint64
	for _, f := range files {
		state := "active or unsealed"
		if f.Sealed {
			state = "sealed"
		}
		if drained[f.Name] {
			state += ", drained"
		} else {
			replay += f.Records + f.References
			if f.Records > 0 && (minID == 0 || f.MinID < minID) {
				minID = f.MinID
			}
			maxID = max(maxID, f.MaxID)
		}
		records += f.Records
		refs += f.References
		refBytes += f.ReferenceBytes
		fmt.Fprintf(w, "  %-20s v%d %8d records %6d pages %8d refs %10d bytes  ids [%d, %d]  %s\n",
			f.Name, f.Version, f.Records, f.Pages, f.References, f.Bytes, f.MinID, f.MaxID, state)
	}
	fmt.Fprintf(w, "ok: %d files, %d records, %d references in %d bytes, %d replayable, id range [%d, %d]\n",
		len(files), records, refs, refBytes, replay, minID, maxID)
	return nil
}

// getJSON fetches base+path from a running kflushd and decodes into v.
func getJSON(base, path string, v any) error {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cli := &http.Client{Timeout: 30 * time.Second}
	resp, err := cli.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cmdTrace runs one traced keyword search against a running kflushd and
// pretty-prints the execution trace: the memory probe per key and, on a
// miss, every disk segment consulted with its Bloom/cache outcome.
func cmdTrace(base, q string, k int) error {
	path := fmt.Sprintf("/search/keywords?q=%s&k=%d&trace=1", url.QueryEscape(q), k)
	if strings.Contains(q, ",") {
		path += "&op=or"
	}
	var resp struct {
		Items     []json.RawMessage `json:"items"`
		MemoryHit bool              `json:"memory_hit"`
		Trace     *kflushing.Trace  `json:"trace"`
	}
	if err := getJSON(base, path, &resp); err != nil {
		return err
	}
	tr := resp.Trace
	if tr == nil {
		return fmt.Errorf("response carried no trace (server too old?)")
	}
	fmt.Printf("query op=%s k=%d keys=%s -> %d items, memory_hit=%v\n",
		tr.Op, tr.K, strings.Join(tr.Keys, ","), tr.Items, tr.MemoryHit)
	fmt.Printf("memory: hit=%v reason=%s candidates=%d\n", tr.MemoryHit, cmp.Or(tr.HitReason, "-"), tr.MemoryItems)
	for _, e := range tr.Entries {
		fmt.Printf("  entry %-24s found=%-5v postings=%-6d k_filled=%-5v complete=%v\n",
			e.Key, e.Found, e.Postings, e.KFilled, e.Complete)
	}
	if d := tr.Disk; d != nil {
		fmt.Printf("disk: %d segments consulted, %d candidates, cache %d hits / %d misses, %d preads\n",
			len(d.Segments), d.Items, d.CacheHits, d.CacheMisses, d.RecordsRead)
		for _, sp := range d.Segments {
			if sp.Pruned {
				fmt.Printf("  seg %-22s PRUNED (max_score=%g)\n", sp.Segment, sp.MaxScore)
				continue
			}
			fmt.Printf("  seg %-22s bloom=%d/%d passed=%-5v dir=%d cand=%d reads=%d items=%d %s\n",
				sp.Segment, sp.BloomProbes, sp.BloomSkips, sp.BloomPassed,
				sp.DirProbes, sp.Candidates, sp.RecordsRead, sp.Items,
				time.Duration(sp.Nanos))
		}
	}
	for _, st := range tr.Stages {
		fmt.Printf("stage %-8s %s\n", st.Name, time.Duration(st.Nanos))
	}
	return nil
}

// cmdFlushLog fetches the flight recorder's flush events from a running
// kflushd, folds them into cycles (blackbox.FlushCycles) and prints the
// most recent n per attribute: one line per cycle — its stages on it —
// then its per-phase victim/freed
// breakdown. The policy column comes from /stats: the events do not
// name it.
func cmdFlushLog(base string, n int) error {
	var timeline struct {
		Epoch  int64                     `json:"epoch_unix_nanos"`
		Events []kflushing.TimelineEvent `json:"events"`
	}
	// Every retained flush event: a cycle cut at the old end is dropped
	// whole by the view, so asking for fewer would only lose cycles.
	if err := getJSON(base, "/debug/blackbox?subsystem=flush&n=100000", &timeline); err != nil {
		return err
	}
	var stats map[string]struct{ Policy string }
	if err := getJSON(base, "/stats", &stats); err != nil {
		return err
	}
	byAttr := map[string][]kflushing.BlackboxEvent{}
	for _, ev := range timeline.Events {
		byAttr[ev.Attr] = append(byAttr[ev.Attr], ev.Event)
	}
	attrs := make([]string, 0, len(stats))
	for a := range stats {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		evs := blackbox.FlushCycles(byAttr[a], timeline.Epoch)
		if len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		fmt.Printf("%s: %d cycles\n", a, len(evs))
		for _, ev := range evs {
			status := "satisfied"
			if !ev.Satisfied {
				status = "SHORT"
			}
			if ev.Err != "" {
				status = "ERROR " + ev.Err
			}
			if !ev.Complete {
				status += " (completing)"
			}
			var stages []string
			for _, st := range ev.Stages {
				stages = append(stages, fmt.Sprintf("%s=%s", st.Name, time.Duration(st.Nanos)))
			}
			fmt.Printf("  #%-6d %-12s %-8s target=%-10d freed=%-10d mem %d->%d %s %s [%s]\n",
				ev.ID, stats[a].Policy, ev.Trigger, ev.Target, ev.Freed,
				ev.MemBefore, ev.MemAfter, time.Duration(ev.Nanos), status, strings.Join(stages, " "))
			for _, ph := range ev.Phases {
				line := fmt.Sprintf("    phase %d %-12s victims=%-8d freed=%-10d %s",
					ph.Phase, ph.Name, ph.Victims, ph.Freed, time.Duration(ph.Nanos))
				if len(ph.ShardNanos) > 0 {
					line += fmt.Sprintf(" shards=%d", len(ph.ShardNanos))
				}
				fmt.Println(line)
			}
		}
	}
	return nil
}

// scrapeMetrics fetches /metrics from a running kflushd and parses the
// Prometheus text exposition into metric name -> attr label -> value.
// Histogram bucket and per-level/phase/stage series are skipped — the
// watch only needs the scalar gauges and counters. Unlabeled process
// metrics key under the empty attr.
func scrapeMetrics(base string) (map[string]map[string]float64, error) {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cli := &http.Client{Timeout: 30 * time.Second}
	resp, err := cli.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

// parseExposition decodes Prometheus text format, keeping one value per
// (metric, attr) pair; a family split by reason is summed over it.
func parseExposition(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, labelStr, valStr string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			name, labelStr, valStr = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			name, valStr = f[0], f[1]
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		attr, skip, sum := "", false, false
		for _, pair := range strings.Split(labelStr, ",") {
			k, qv, ok := strings.Cut(pair, "=")
			if !ok {
				continue
			}
			uv, err := strconv.Unquote(qv)
			if err != nil {
				uv = strings.Trim(qv, `"`)
			}
			switch k {
			case "attr":
				attr = uv
			case "reason":
				sum = true
			case "le", "level", "phase", "stage":
				// One series per (metric, attr) is the contract here;
				// bucketed and per-dimension families would collide.
				skip = true
			}
		}
		if skip {
			continue
		}
		m := out[name]
		if m == nil {
			m = map[string]float64{}
			out[name] = m
		}
		if sum {
			v += m[attr]
		}
		m[attr] = v
	}
	return out, sc.Err()
}

// cmdTop is a live watch over a running kflushd: each refresh scrapes
// /metrics twice (interval apart) and renders per-attribute rates and
// deltas — ingest rate, QPS, memory and disk-cache hit ratios over the
// window, flush batches in flight, compaction backlog, and the degraded
// flag. count bounds the refreshes so the command terminates in scripts.
func cmdTop(base string, interval time.Duration, count int) error {
	// The CLI parser rejects non-positive intervals too, but cmdTop is
	// the last line of defense: a zero window would turn every rate
	// column into a division by zero.
	if interval <= 0 {
		return fmt.Errorf("top: interval must be positive, got %v", interval)
	}
	prev, err := scrapeMetrics(base)
	if err != nil {
		return err
	}
	if err := checkTopFamilies(prev); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		time.Sleep(interval)
		cur, err := scrapeMetrics(base)
		if err != nil {
			return err
		}
		renderTop(os.Stdout, prev, cur, interval)
		prev = cur
	}
	return nil
}

// topFamilies are the metric families the top view is built from; a
// scrape missing any of them is an older (or foreign) server whose
// output would render as all-zero columns, so it is rejected up front.
var topFamilies = []string{
	"kflushing_ingested_total",
	"kflushing_queries_total",
	"kflushing_flush_pipeline_depth",
}

// checkTopFamilies verifies the first scrape carries the families the
// watch renders, so a too-old kflushd produces one clear error instead
// of a table of zeros and dashes.
func checkTopFamilies(scrape map[string]map[string]float64) error {
	var missing []string
	for _, fam := range topFamilies {
		if len(scrape[fam]) == 0 {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("top: metric families %s missing from the scrape; the server is too old (or not kflushd) — upgrade it or use the /metrics endpoint directly",
			strings.Join(missing, ", "))
	}
	return nil
}

// renderTop prints one refresh of the live watch from two scrapes.
func renderTop(w io.Writer, prev, cur map[string]map[string]float64, interval time.Duration) {
	get := func(name, attr string) float64 { return cur["kflushing_"+name][attr] }
	delta := func(name, attr string) float64 {
		return cur["kflushing_"+name][attr] - prev["kflushing_"+name][attr]
	}
	ratio := func(hits, total float64) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*hits/total)
	}
	attrs := make([]string, 0, len(cur["kflushing_ingested_total"]))
	for a := range cur["kflushing_ingested_total"] {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	secs := interval.Seconds()
	fmt.Fprintf(w, "%s  (window %s)\n", time.Now().Format("15:04:05"), interval)
	fmt.Fprintf(w, "%-8s %10s %8s %7s %9s %9s %8s %9s\n",
		"attr", "ingest/s", "qps", "hit%", "cachehit%", "pipeline", "backlog", "degraded")
	for _, a := range attrs {
		dq := delta("queries_total", a)
		dch := delta("disk_cache_hits_total", a)
		dcm := delta("disk_cache_misses_total", a)
		degraded := "no"
		if get("degraded", a) > 0 {
			degraded = "YES"
		}
		fmt.Fprintf(w, "%-8s %10.1f %8.1f %7s %9s %9.0f %8.0f %9s\n",
			a,
			delta("ingested_total", a)/secs,
			dq/secs,
			ratio(delta("query_hits_total", a), dq),
			ratio(dch, dch+dcm),
			get("flush_pipeline_depth", a),
			get("compaction_backlog", a),
			degraded)
	}
	fmt.Fprintf(w, "process: %.0f goroutines, %.1f MiB heap\n",
		cur["kflushing_goroutines"][""], cur["kflushing_heap_alloc_bytes"][""]/(1<<20))
}

func usage() {
	fmt.Fprintf(os.Stderr, `kflushctl administers kflushing data directories offline.

usage:
  kflushctl upgrade <dir>
  kflushctl segments <dir>
  kflushctl levels <dir>
  kflushctl dump <segment-or-block-file>
  kflushctl verify <dir>
  kflushctl compact <dir>
  kflushctl probe <dir> <key> [k]
  kflushctl probe <base-url>
  kflushctl wal <dir>
  kflushctl trace <base-url> <q> [k]
  kflushctl flushlog <base-url> [n]
  kflushctl top <base-url> [interval] [count]
`)
}
