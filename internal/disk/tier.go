// Package disk implements the disk tier microblogs are flushed to and
// that memory misses fall back to (Figure 2).
//
// A flush writes a segment — a per-key directory of ranked postings
// (segment.go) — over the record files holding the evicted records, so
// disk search touches only the matching records. On a store without a
// write-ahead log the flush first writes those records once, as a record
// block ranked best-score-first (block.go). On a durable store they are
// already on disk, framed in the log's files, which the tier reads in
// place (logfile.go): the flush writes only the directory. A memory miss
// searches segments newest-first with a max-score bound for early
// termination.
//
// Segments are organized into size-tiered levels — L0 holds fresh
// flushes, each deeper level holds geometrically larger merged segments
// — with level membership committed in a small fsync'd manifest (see
// manifest.go) and compaction keeping every level at or below its
// fanout. Leveling bounds memory-miss cost: the segment count grows
// logarithmically in data size instead of linearly in flush count. A
// merge writes a directory over the union of its inputs' blocks and
// nothing else (compact.go): a record is written to the tier once.
//
// History: until PR 6 the tier was one ever-growing flat list of seg-*
// files with oldest-half compaction and no manifest; that layout shipped
// beside this one behind a knob until PR 18 deleted it. Its measurements
// are in EXPERIMENTS.md "Leveled disk tier", and a tier with compaction
// disabled searches exactly as it did, which is what the equivalence
// tests use as their reference.
package disk

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
	"kflushing/internal/query"
	"kflushing/internal/trace"
	"kflushing/internal/types"
)

// Layout names the tier's on-disk organization. There is one.
type Layout int

// LayoutLeveled organizes segments into size-tiered levels under a
// manifest, with per-level fanout compaction.
const LayoutLeveled Layout = 0

// String names the layout for stats and tooling.
func (Layout) String() string { return "leveled" }

// DefaultLevelFanout is the per-level segment bound when
// Config.LevelFanout is zero: a level exceeding it merges into the next.
const DefaultLevelFanout = 4

// Config parameterizes a Tier for one search attribute.
type Config[K comparable] struct {
	// Dir is the directory segment files are written to. Required.
	Dir string
	// KeysOf extracts the attribute keys of a record, defining which
	// directory entries it appears under. Required.
	KeysOf func(*types.Microblog) []K
	// Encode renders a key for the on-disk directory. Required.
	Encode func(K) string
	// Layout has one value and selects nothing. The frozen benchmark
	// harness (bench/probes.go) names it; the next benchmark PR drops it.
	Layout Layout
	// MaxSegments: only the sign matters. Negative disables compaction
	// entirely (every flush piles into L0, searched newest-first);
	// otherwise LevelFanout governs.
	MaxSegments int
	// LevelFanout bounds a level's segment count; a level exceeding it
	// merges into one segment at the next level. 0 selects
	// DefaultLevelFanout; values below 2 are raised to 2.
	LevelFanout int
	// CacheBytes bounds the decoded-record read cache; 0 selects the
	// default (8 MiB), negative disables caching.
	CacheBytes int64
	// Retry bounds transient-I/O retries on record reads; the zero
	// value disables retrying.
	Retry RetryPolicy
	// Recorder, when non-nil, receives compaction, cache eviction and
	// retry events on the engine's flight recorder. (Flush stage events
	// are the engine's: it has FlushStats and the cycle's ID.)
	Recorder *blackbox.Recorder
	// Logged makes every flush a directory over the sealed log files its
	// records' frames sit in (FlushRecord.LogSeq, LogOrd) instead of a
	// record block and a directory: the store's write-ahead log is its
	// record store.
	Logged bool
	// Logs is the registry of the log files the tier's directories name,
	// shared by every tier over one log; nil keeps a registry of the
	// tier's own. A tier whose Dir is not the registry's resolves log file
	// names there and carries no drained mark (see LogSet).
	Logs *LogSet
}

// RetryPolicy bounds a retry loop around transient disk errors.
type RetryPolicy struct {
	// Attempts is the number of RETRIES after the first failure; 0
	// disables retrying.
	Attempts int
	// Backoff is the sleep before the first retry, doubling on each
	// further one. Zero retries immediately.
	Backoff time.Duration
}

// Do runs f, retrying per the policy with exponential backoff. It
// returns nil as soon as an attempt succeeds, else the last error.
func (p RetryPolicy) Do(f func() error) error {
	_, err := p.DoCounted(f)
	return err
}

// DoCounted is Do reporting the number of attempts made (1 when the
// first try succeeds), so callers can surface retry activity.
func (p RetryPolicy) DoCounted(f func() error) (int, error) {
	attempts := 1
	err := f()
	backoff := p.Backoff
	for retry := 0; err != nil && retry < p.Attempts; retry++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		attempts++
		err = f()
	}
	return attempts, err
}

// DefaultCacheBytes is the record-cache budget when Config.CacheBytes
// is zero.
const DefaultCacheBytes = 8 << 20

// LevelStats summarizes one level of the tier.
type LevelStats struct {
	Level    int   `json:"level"`
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	Records  int64 `json:"records"`
}

// Stats summarizes tier activity.
type Stats struct {
	Layout   string
	Segments int
	// Blocks counts the record block files the live segments name.
	Blocks         int
	Levels         []LevelStats
	RecordsWritten int64
	BytesWritten   int64 // bytes flushes wrote, block and directory
	// ShadowedRecordBytes is the dead weight in live blocks: copies of
	// records that a newer block also holds (a recovery replay re-flushed
	// them) and that merged directories therefore no longer post. Blocks
	// are never rewritten, so it is reclaimed only when a whole block is
	// shadowed.
	ShadowedRecordBytes int64
	Searches            int64
	RecordReads         int64 // real preads (cache misses included, hits not)
	Compactions         int64

	// CompactionBacklog counts levels currently over their fanout —
	// merges owed; a persistently positive value means compaction keeps
	// failing or cannot keep up with the flushes.
	CompactionBacklog int
	// CompactionFailures counts failed compaction passes, whoever ran
	// them.
	CompactionFailures int64
	// PendingRetired counts compaction inputs superseded by a live
	// merged segment but not yet unlinked.
	PendingRetired int

	// Cumulative flush stage nanos: build (encode + staged write +
	// fsync, off the segment-list lock) and install (rename + manifest
	// commit + level append).
	BuildNanos   int64
	InstallNanos int64

	// Bloom fast-path counters: probes is filter consultations,
	// skips is directory lookups avoided by a negative filter answer,
	// dirProbes is directory lookups actually performed.
	BloomProbes int64
	BloomSkips  int64
	DirProbes   int64

	// Record-cache counters.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheBytes     int64
}

// FlushStats reports one flush's stage timings and output size.
type FlushStats struct {
	BuildNanos   int64
	InstallNanos int64
	Records      int
	Bytes        int64
}

// Tier is the disk storage for one attribute. Safe for concurrent use;
// flushes serialize internally while searches proceed under a read lock.
type Tier[K comparable] struct {
	cfg    Config[K]
	cache  *recordCache // nil when disabled
	fanout int

	// mu guards the level lists and the retired set. It is held only
	// for snapshots and list swaps — never across file I/O — so
	// searches are not blocked while a segment is built or merged.
	mu      sync.RWMutex
	levels  [][]*segment // levels[i] oldest-first
	retired []string     // manifest-retired inputs not yet unlinked
	// closed makes keepsLog answer yes: a closed tier cannot vouch for
	// what its directories name.
	closed bool

	// seq is the last assigned segment sequence number; never reused,
	// even across restarts (persisted via the manifest and re-derived
	// from file names).
	seq atomic.Uint64
	// maxID is the highest record ID any installed segment holds (see
	// MaxRecordID); raised by a flush install and committed with it.
	maxID atomic.Uint64

	// flushMu serializes flushes so the sort/encode scratch buffers can
	// be reused across cycles instead of reallocated per flush.
	flushMu    sync.Mutex
	sortBuf    []FlushRecord
	encScratch []byte

	// manifestMu serializes manifest commits with the level mutations
	// they publish (flush installs and compaction installs).
	manifestMu sync.Mutex
	// compactMu serializes compaction passes; Close takes it too, so it
	// waits for the pass in progress.
	compactMu sync.Mutex
	// closing is set when Close begins: no compaction pass starts after
	// it.
	closing atomic.Bool

	recordsWritten     atomic.Int64
	bytesWritten       atomic.Int64
	searches           atomic.Int64
	recordReads        atomic.Int64
	compactions        atomic.Int64
	compactionFailures atomic.Int64
	buildNanos         atomic.Int64
	installNanos       atomic.Int64
	bloomProbes        atomic.Int64
	bloomSkips         atomic.Int64
	dirProbes          atomic.Int64
}

// parseSeq extracts the numeric sequence from a tier file name like
// "seg-00000007.kfs", "lvl-00000012.kfs" or "blk-00000007.kfs".
func parseSeq(name string) (uint64, bool) {
	name = filepath.Base(name)
	i := strings.IndexByte(name, '-')
	j := strings.Index(name, ".kfs")
	if i < 0 || j <= i+1 {
		return 0, false
	}
	n, err := strconv.ParseUint(name[i+1:j], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segmentGlobs returns dir's live directory file paths: flush outputs
// (seg-*) and compaction outputs (lvl-*).
func segmentGlobs(dir string) (segPaths, lvlPaths []string, err error) {
	segPaths, err = filepath.Glob(filepath.Join(dir, "seg-*.kfs"))
	if err != nil {
		return nil, nil, err
	}
	lvlPaths, err = filepath.Glob(filepath.Join(dir, "lvl-*.kfs"))
	if err != nil {
		return nil, nil, err
	}
	return segPaths, lvlPaths, nil
}

// sortBySeqOrder sorts paths by their numeric sequence (file-name order
// is not enough once seg- and lvl- prefixes mix).
func sortBySeqOrder(paths []string) {
	sort.Slice(paths, func(i, j int) bool {
		a, _ := parseSeq(paths[i])
		b, _ := parseSeq(paths[j])
		if a != b {
			return a < b
		}
		return paths[i] < paths[j]
	})
}

// Open creates a tier over cfg.Dir, recovering any segment files a
// previous process left there: level membership comes from the manifest
// when one is present and valid, and from adopting the segment files
// found on disk otherwise (see openLeveled).
func Open[K comparable](cfg Config[K]) (*Tier[K], error) {
	if cfg.Dir == "" || cfg.KeysOf == nil || cfg.Encode == nil {
		return nil, fmt.Errorf("disk: Dir, KeysOf and Encode are required")
	}
	if err := failpoint.Eval(failpoint.DiskOpenMkdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkNoLogDir(cfg.Dir); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	if cfg.Logs == nil {
		cfg.Logs = NewLogSet(cfg.Dir)
	}
	t := &Tier[K]{cfg: cfg}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	if cacheBytes > 0 {
		t.cache = newRecordCache(cacheBytes, cfg.Recorder)
	}
	t.fanout = cfg.LevelFanout
	if t.fanout == 0 {
		t.fanout = DefaultLevelFanout
	}
	if t.fanout < 2 {
		t.fanout = 2
	}
	// A crash mid-flush or mid-compaction leaves staged files (*.tmp,
	// *.compact, manifest temp) that were never renamed live: they hold
	// nothing a recovered store needs (their records are still in the
	// WAL or in the compaction inputs), so remove them. Removal
	// failures are harmless — the names never collide with live files.
	for _, pattern := range []string{"blk-*.kfs.*", "seg-*.kfs.*", "lvl-*.kfs.*", "wal-*.kfw.*", manifestName + ".tmp"} {
		if orphans, err := filepath.Glob(filepath.Join(cfg.Dir, pattern)); err == nil {
			for _, p := range orphans {
				slog.Warn("disk: removing orphaned staged file", "path", p)
				_ = os.Remove(p)
			}
		}
	}
	if err := t.openLeveled(); err != nil {
		return nil, err
	}
	cfg.Logs.join(t, cfg.Dir)
	return t, nil
}

// openLeveled recovers the level lists. The recovery rules, in order,
// are the crash-safety contract the crash matrix enforces:
//
//  1. A valid manifest is truth: files it lists retired are deleted,
//     files it lists live open at their recorded level.
//  2. A seg-* file the manifest does not reference is an uncommitted
//     flush (crash between directory rename and manifest commit): adopt
//     it at L0. Its block went durably live before it did, its records
//     are also still in the WAL, and search deduplicates by record ID,
//     so adoption can only add, never lose.
//  3. A lvl-* file the manifest does not reference is an uncommitted
//     compaction output (crash before its commit): delete it. It holds
//     postings only, all of them still held by its inputs, which the
//     manifest lists live — deleting cannot lose data, keeping it
//     would duplicate whole segments. The blocks it names are untouched.
//  4. No manifest, or a corrupt one (torn by bit rot — the atomic
//     rewrite never tears it itself): adopt everything, seg-* at L0
//     and lvl-* at L1. Retired-but-undeleted inputs resurface as
//     duplicates; tolerated, because search deduplicates by ID and
//     the next compaction merges them away. Nothing is ever lost. An
//     older manifest version is refused (ErrNeedsUpgrade), not adopted.
//  5. Blocks are not in the manifest; they are whatever the live
//     directories name. A blk-* file no directory names is an
//     uncommitted flush's orphan (crash between the block's rename and
//     its directory's) or a fully shadowed block whose unlink a crash
//     cut short: delete it.
//  6. Log files (wal-*.kfw) belong to the write-ahead log until the
//     manifest lists them drained: an undrained one is never deleted,
//     named or not — its records may exist nowhere else. Nor is a
//     drained one here: an undrained file's reference frame may still
//     reach it, which only the log's replay shows. The tiers' LogSet
//     sweeps them afterwards (LogSet.Track); an offline open never does.
//     A drained name whose file is gone leaves the list. Only the home
//     tier, the one in the set's directory, holds log files and drained
//     marks: the other tiers' log file names resolve in its directory.
//
// Afterwards a fresh manifest is committed so the next crash window
// starts from a clean baseline, and the sequence counter resumes past
// every name seen (sequence numbers are never reused).
func (t *Tier[K]) openLeveled() (err error) {
	defer func() {
		if err != nil {
			t.releaseLevels()
		}
	}()
	segPaths, lvlPaths, err := segmentGlobs(t.cfg.Dir)
	if err != nil {
		return err
	}
	blkPaths, err := filepath.Glob(filepath.Join(t.cfg.Dir, "blk-*.kfs"))
	if err != nil {
		return err
	}
	var maxSeq uint64
	for _, paths := range [][]string{segPaths, lvlPaths, blkPaths} {
		for _, p := range paths {
			if n, ok := parseSeq(p); ok && n > maxSeq {
				maxSeq = n
			}
		}
	}
	m, merr := ReadManifest(t.cfg.Dir)
	if errors.Is(merr, ErrNeedsUpgrade) {
		return fmt.Errorf("disk: %s: %w", t.cfg.Dir, merr)
	}
	valid := merr == nil
	if merr != nil && !os.IsNotExist(merr) {
		slog.Warn("disk: manifest unreadable, adopting segment files",
			"dir", t.cfg.Dir, "error", merr)
	}
	if m.NextSeq > 0 && m.NextSeq-1 > maxSeq {
		maxSeq = m.NextSeq - 1
	}
	t.seq.Store(maxSeq)

	// Directories naming the same block share one open block.
	bs := newBlockSet(t.cfg.Logs)
	defer bs.release()
	t.levels = [][]*segment{nil}
	named := make(map[string]struct{}) // block files the opened directories name
	open := func(lvl int, p string) error {
		s, err := openSegment(p, bs)
		if err != nil {
			return fmt.Errorf("disk: recover %s: %w", p, err)
		}
		t.ensureLevels(lvl + 1)
		t.levels[lvl] = append(t.levels[lvl], s)
		for _, b := range s.blocks {
			named[b.name()] = struct{}{}
		}
		return nil
	}
	sweepBlocks := true
	// The manifest's record-ID high-water mark covers the segments it
	// lists; anything adopted beyond it (and everything, without a
	// manifest) is read back from the blocks below.
	rescanIDs := !valid
	if valid {
		listed := make(map[string]struct{}, len(m.Live)+len(m.Retired))
		for _, name := range m.Retired {
			listed[name] = struct{}{}
			// Removal is best-effort: an undeletable retired input stays
			// shadowed by the manifest, not adopted. The failpoint lets
			// the recovery tests exercise exactly that tolerance.
			p := filepath.Join(t.cfg.Dir, name)
			if failpoint.Eval(failpoint.DiskAdoptRemove) == nil {
				if err := os.Remove(p); err == nil {
					slog.Warn("disk: deleted retired compaction input", "name", name)
				}
			}
			if fileExists(p) {
				// It may be the last directory naming some block, and a
				// block outlives every directory file that names it.
				t.retired = append(t.retired, name)
				sweepBlocks = false
			}
		}
		for _, e := range m.Live {
			listed[e.Name] = struct{}{}
			p := filepath.Join(t.cfg.Dir, e.Name)
			if !fileExists(p) {
				return fmt.Errorf("disk: manifest references missing segment %s", e.Name)
			}
			if err := open(e.Level, p); err != nil {
				return err
			}
		}
		for _, p := range append(append([]string(nil), segPaths...), lvlPaths...) {
			name := filepath.Base(p)
			if _, ok := listed[name]; ok {
				continue
			}
			if strings.HasPrefix(name, "seg-") {
				slog.Warn("disk: adopting uncommitted flushed segment at L0", "name", name)
				if err := open(0, p); err != nil {
					return err
				}
				rescanIDs = true
				continue
			}
			slog.Warn("disk: deleting uncommitted compaction output", "name", name)
			_ = os.Remove(p)
		}
	} else {
		for _, p := range segPaths {
			if err := open(0, p); err != nil {
				return err
			}
		}
		for _, p := range lvlPaths {
			if err := open(1, p); err != nil {
				return err
			}
		}
	}
	// Oldest first within a level; adoption appended out of order.
	for _, lv := range t.levels {
		sort.SliceStable(lv, func(i, j int) bool {
			a, _ := parseSeq(lv[i].path)
			b, _ := parseSeq(lv[j].path)
			return a < b
		})
	}
	for _, p := range blkPaths {
		if _, ok := named[filepath.Base(p)]; !ok && sweepBlocks {
			slog.Warn("disk: removing unreferenced record block", "path", p)
			_ = os.Remove(p)
		}
	}
	if valid {
		t.cfg.Logs.load(t.cfg.Dir, m.Drained)
	}
	maxID := m.MaxRecordID
	if rescanIDs {
		if maxID, err = bs.maxRecordID(); err != nil {
			return err
		}
	}
	t.maxID.Store(maxID)
	// Commit the recovered state so unreferenced adoptions and retired
	// deletions are durable before any new flush builds on them.
	t.manifestMu.Lock()
	err = t.commitManifest()
	t.manifestMu.Unlock()
	return err
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// compactionEnabled reports whether this tier ever compacts on its own:
// a negative MaxSegments disables it (everything piles into L0).
func (t *Tier[K]) compactionEnabled() bool { return t.cfg.MaxSegments >= 0 }

// ensureLevels grows the level list to at least n entries. Caller must
// hold mu.
func (t *Tier[K]) ensureLevels(n int) {
	for len(t.levels) < n {
		t.levels = append(t.levels, nil)
	}
}

// commitManifest atomically rewrites the manifest from the current
// level lists, retired set and, in the home tier, the LogSet's drained
// marks. A drain mark it is the first commit to carry unlinks the file,
// when nothing keeps it — not after ErrCommitUnsynced: the marks stay
// fresh until a commit that syncs. Caller must hold manifestMu (it
// takes mu itself).
func (t *Tier[K]) commitManifest() error {
	m := Manifest{NextSeq: t.seq.Load() + 1, MaxRecordID: t.maxID.Load()}
	var fresh []string
	m.Drained, fresh = t.cfg.Logs.marks(t.cfg.Dir)
	t.mu.RLock()
	for lvl, segs := range t.levels {
		for _, s := range segs {
			m.Live = append(m.Live, ManifestEntry{Name: s.name(), Level: lvl})
		}
	}
	m.Retired = append(m.Retired, t.retired...)
	t.mu.RUnlock()
	if err := writeManifest(t.cfg.Dir, m); err != nil {
		return err
	}
	t.cfg.Logs.committed(fresh)
	return nil
}

// commitMarks commits the manifest out of turn: at Close, with the drain
// marks no commit has carried yet, and after a LogSet sweep, so its
// drained list heals down to the files left.
func (t *Tier[K]) commitMarks() error {
	t.manifestMu.Lock()
	defer t.manifestMu.Unlock()
	return t.commitManifest()
}

// Flush durably writes the evicted records as one new segment: a record
// block and a directory over it, or, on a Logged tier, a directory over
// the log files already holding them. The input order is irrelevant;
// the tier ranks records by score before writing. See FlushStaged for
// the stage structure. A compaction pass follows the install; its
// failure is counted and logged, not the flush's: the segment is live.
func (t *Tier[K]) Flush(recs []FlushRecord) error {
	_, err := t.FlushStaged(recs)
	if err != nil && !errors.Is(err, ErrCommitUnsynced) {
		return err
	}
	if cerr := t.CompactNow(); cerr != nil {
		slog.Error("disk: compaction failed", "dir", t.cfg.Dir, "error", cerr)
	}
	return err
}

// FlushStaged is Flush reporting per-stage timings. The flush runs in
// two stages: build (sort, encode, staged writes, fsync) touches no
// shared segment state, so searches and installs proceed concurrently;
// install (atomic renames, level append, manifest commit) holds the
// segment-list lock only for the append. It never compacts: the caller
// runs CompactNow once the flush is done.
// Flushes serialize on an internal gate so the sort and encode scratch
// buffers are reused across cycles.
func (t *Tier[K]) FlushStaged(recs []FlushRecord) (FlushStats, error) {
	var fs FlushStats
	if len(recs) == 0 {
		return fs, nil
	}
	t.flushMu.Lock()
	buildStart := time.Now()
	sorted := append(t.sortBuf[:0], recs...)
	t.sortBuf = sorted
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		return sorted[i].MB.ID > sorted[j].MB.ID
	})
	// Build stage: everything up to durable staged files, off mu.
	fl, err := t.stageFlush(sorted)
	// Drop the record pointers so the reusable buffer does not pin
	// evicted microblogs in memory between flushes.
	n := len(sorted)
	for i := range sorted {
		sorted[i] = FlushRecord{}
	}
	if err != nil {
		t.flushMu.Unlock()
		return fs, err
	}
	fs.BuildNanos = time.Since(buildStart).Nanoseconds()

	// Install stage: rename live, publish to L0, commit the manifest.
	// A commit that stands unsynced installed the segment: it is
	// accounted as installed, and its error surfaces at the end.
	installStart := time.Now()
	err = t.installFlushed(fl)
	if err != nil && !errors.Is(err, ErrCommitUnsynced) {
		fl.discard()
		t.flushMu.Unlock()
		return fs, err
	}
	fs.InstallNanos = time.Since(installStart).Nanoseconds()
	t.flushMu.Unlock()

	fs.Records = n
	fs.Bytes = fl.dir.size
	if fl.blk != nil {
		fs.Bytes += fl.blk.size
	}
	t.recordsWritten.Add(int64(n))
	t.bytesWritten.Add(fs.Bytes)
	t.buildNanos.Add(fs.BuildNanos)
	t.installNanos.Add(fs.InstallNanos)
	return fs, err
}

// stagedFlush is one flush between its two stages: a record block (nil
// on a Logged tier) and the directory over it, durable at their staging
// paths, and the segment they will be once live.
type stagedFlush struct {
	blk, dir *stagedFile
	s        *segment // with a block, s.blocks[0] is it; install opens its handle
	maxID    uint64   // highest record ID the directory posts
}

// stageFlush runs the build stage over records already in rank order:
// encode the directory and, unless the tier is Logged, the record block
// it posts into; stage both. On a Logged tier the records are already
// durable, framed in sealed log files, so the directory's block table
// names those files and a record's posting is its frame's ordinal in the
// concatenation. Caller must hold flushMu (it reuses the encode scratch).
func (t *Tier[K]) stageFlush(sorted []FlushRecord) (*stagedFlush, error) {
	seq := t.seq.Add(1)
	var blkBuf []byte
	var blocks []*block
	posting := func(i int) uint32 { return uint32(i) }
	if t.cfg.Logged {
		var err error
		if blocks, posting, err = t.logBlocks(sorted); err != nil {
			return nil, err
		}
	} else {
		var b *block
		blkBuf, b = encodeBlock(t.encScratch[:0], filepath.Join(t.cfg.Dir, fmt.Sprintf("blk-%08d.kfs", seq)), sorted)
		t.encScratch = blkBuf
		blocks = []*block{b}
	}
	s := newSegment(filepath.Join(t.cfg.Dir, fmt.Sprintf("seg-%08d.kfs", seq)), blocks)
	fl := &stagedFlush{s: s, maxID: t.index(s, sorted, posting)}
	dirBuf := s.encode(nil)
	s.size = int64(len(dirBuf))
	var err error
	if blkBuf != nil {
		if fl.blk, err = stageFile(blocks[0].path, flushedBlock, blkBuf); err != nil {
			s.release()
			return nil, err
		}
	}
	if fl.dir, err = stageFile(s.path, flushedDir, dirBuf); err != nil {
		if fl.blk != nil {
			fl.blk.discard()
		}
		s.release()
		return nil, err
	}
	return fl, nil
}

// logBlocks opens the sealed log files framing sorted, oldest first,
// with a reference each, and returns them with each record's posting:
// its frame's ordinal in their concatenation.
func (t *Tier[K]) logBlocks(sorted []FlushRecord) ([]*block, func(i int) uint32, error) {
	seqs := make([]uint32, 0, 4)
	for _, fr := range sorted {
		if fr.LogSeq == 0 {
			return nil, nil, fmt.Errorf("disk: logged flush of record %d, which names no log file", fr.MB.ID)
		}
		if i, found := slices.BinarySearch(seqs, fr.LogSeq); !found {
			seqs = slices.Insert(seqs, i, fr.LogSeq)
		}
	}
	blocks := make([]*block, 0, len(seqs))
	base := make([]uint32, len(seqs))
	fail := func(err error) ([]*block, func(int) uint32, error) {
		for _, b := range blocks {
			b.release()
		}
		return nil, nil, err
	}
	for i, sq := range seqs {
		b, err := t.logBlock(sq)
		if err != nil {
			return fail(err)
		}
		blocks = append(blocks, b)
		if i > 0 {
			base[i] = base[i-1] + blocks[i-1].count()
		}
	}
	for _, fr := range sorted {
		if i, _ := slices.BinarySearch(seqs, fr.LogSeq); fr.LogOrd >= blocks[i].count() {
			return fail(fmt.Errorf("disk: record %d names frame %d of %s, which frames %d: %w",
				fr.MB.ID, fr.LogOrd, blocks[i].name(), blocks[i].count(), ErrCorrupt))
		}
	}
	return blocks, func(i int) uint32 {
		j, _ := slices.BinarySearch(seqs, sorted[i].LogSeq)
		return base[j] + sorted[i].LogOrd
	}, nil
}

// index fills in a flush's directory: each record of sorted, in rank
// order, is posted at posting(i) under every key it carries. It returns
// the highest record ID posted.
func (t *Tier[K]) index(s *segment, sorted []FlushRecord, posting func(i int) uint32) uint64 {
	s.count = uint32(len(sorted))
	s.maxScore = sorted[0].Score
	dir := make(map[string][]uint32)
	var maxID uint64
	for i, fr := range sorted {
		maxID = max(maxID, uint64(fr.MB.ID))
		p := posting(i)
		for _, key := range t.cfg.KeysOf(fr.MB) {
			ek := t.cfg.Encode(key)
			// A record naming the same key twice must post once, like
			// compaction's merged directories — AND intersections count
			// postings per key.
			if l := dir[ek]; len(l) > 0 && l[len(l)-1] == p {
				continue
			}
			dir[ek] = append(dir[ek], p)
		}
	}
	s.setKeys(dir)
	return maxID
}

// logBlock returns sealed log file seq as a block, with a reference for
// the caller (LogSet.block).
func (t *Tier[K]) logBlock(seq uint32) (*block, error) {
	return t.cfg.Logs.block(LogName(seq))
}

// keepsLog reports whether the tier needs log file name on disk: a live
// directory names it, a retired directory file that a manifest fallback
// would adopt is still there, or the tier is closed.
func (t *Tier[K]) keepsLog(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.closed || len(t.retired) > 0 || t.namesFileLocked(name)
}

// namesFileLocked reports whether any live segment's block table names
// the file. Caller must hold mu.
func (t *Tier[K]) namesFileLocked(name string) bool {
	for _, lv := range t.levels {
		for _, s := range lv {
			for _, b := range s.blocks {
				if b.name() == name {
					return true
				}
			}
		}
	}
	return false
}

// install renames the files live, the block first and durably, so a
// directory that has its final name always finds its block. After any
// error the caller discards.
func (fl *stagedFlush) install() error {
	if fl.blk != nil {
		if err := fl.blk.install(); err != nil {
			return err
		}
		// The crash window this site names: block live, its directory
		// not. Recovery deletes the block as an orphan; the records are
		// still in the WAL.
		if err := failpoint.Eval(failpoint.DiskBlockAfterRename); err != nil {
			return err
		}
	}
	if err := fl.dir.install(); err != nil {
		return err
	}
	if err := failpoint.Eval(failpoint.DiskSegmentAfterRename); err != nil {
		return err
	}
	if fl.blk == nil {
		return nil
	}
	f, err := os.Open(fl.blk.path)
	if err != nil {
		return err
	}
	fl.s.blocks[0].f = f
	return nil
}

// discard undoes a flush that will not be committed: the files it wrote
// go, under whichever names they have, and its block references drop.
func (fl *stagedFlush) discard() {
	if fl.blk != nil {
		fl.blk.discard()
	}
	fl.dir.discard()
	fl.s.release()
}

// installFlushed makes a staged flush live: atomic renames, L0 append,
// and manifest commit — the commit point. On any failure before the
// commit takes effect the level is left untouched and the caller
// discards the files, so the engine can roll the eviction back; after
// ErrCommitUnsynced the segment stays installed.
func (t *Tier[K]) installFlushed(fl *stagedFlush) error {
	t.manifestMu.Lock()
	defer t.manifestMu.Unlock()
	if err := fl.install(); err != nil {
		return err
	}
	// The crash window this site names: both files live on disk, not
	// yet in a committed manifest. Recovery adopts the segment at L0.
	if err := failpoint.Eval(failpoint.DiskLevelInstall); err != nil {
		return err
	}
	t.mu.Lock()
	t.ensureLevels(1)
	t.levels[0] = append(t.levels[0], fl.s)
	t.mu.Unlock()
	// Raised before the commit that installs the segment and never
	// lowered: a failed commit only leaves a gap in the ID space.
	if fl.maxID > t.maxID.Load() {
		t.maxID.Store(fl.maxID)
	}
	if err := t.commitManifest(); err != nil {
		if !errors.Is(err, ErrCommitUnsynced) {
			t.mu.Lock()
			t.levels[0] = removeSegment(t.levels[0], fl.s)
			t.mu.Unlock()
		}
		return err
	}
	return nil
}

// snapshotSegments acquires a search-ordered snapshot of every live
// segment: L0 newest-first, then each deeper level newest-first —
// deeper levels hold strictly older data, so this is global
// newest-first priority order. Every returned segment holds a reader
// reference the caller must release.
func (t *Tier[K]) snapshotSegments() []*segment {
	t.mu.RLock()
	total := 0
	for _, lv := range t.levels {
		total += len(lv)
	}
	segs := make([]*segment, 0, total)
	for _, lv := range t.levels {
		for i := len(lv) - 1; i >= 0; i-- {
			s := lv[i]
			s.acquire()
			segs = append(segs, s)
		}
	}
	t.mu.RUnlock()
	return segs
}

// Search returns the top-k records matching keys under op, ranked by
// score. Segments are consulted one after another, newest first, on the
// calling goroutine: a segment whose best score cannot beat the kth
// result in hand is pruned unread, per-segment Bloom filters skip
// segments that provably lack every requested key, and candidate records
// are served from the record cache when hot, real file reads otherwise.
// The probe order is a function of the segment list alone, so a traced
// search reads the same segments in the same order on every run.
func (t *Tier[K]) Search(keys []K, op query.Op, k int) ([]query.Item, error) {
	return t.SearchTraced(keys, op, k, nil)
}

// SearchTraced is Search with an optional per-segment execution record:
// a non-nil probe receives one SegmentProbe per segment consulted (or
// pruned), with its Bloom outcome, directory probes, cache activity,
// and duration. A nil probe is the zero-cost production path.
func (t *Tier[K]) SearchTraced(keys []K, op query.Op, k int, dp *trace.DiskProbe) ([]query.Item, error) {
	t.searches.Add(1)
	enc := make([]string, len(keys))
	for i, key := range keys {
		enc[i] = t.cfg.Encode(key)
	}

	segs := t.snapshotSegments()
	defer func() {
		for _, s := range segs {
			s.release()
		}
	}()

	var lists [][]query.Item
	var have []query.Item
	for _, s := range segs {
		// Prune: a segment whose best score is strictly below the kth
		// result already in hand cannot change the answer. (Equal
		// scores are not pruned — ties rank by ID, which the max-score
		// bound does not know.)
		if len(have) >= k && have[k-1].Score > s.maxScore {
			if dp != nil {
				dp.AddSegment(trace.SegmentProbe{Segment: s.name(), MaxScore: s.maxScore, Pruned: true})
			}
			continue
		}
		items, err := t.searchSegment(s, enc, op, k, dp)
		if err != nil {
			return nil, err
		}
		if len(items) > 0 {
			lists = append(lists, items)
			have = query.MergeTopK(lists, k)
		}
	}
	out := query.MergeTopK(lists, k)
	if dp != nil {
		dp.Items = len(out)
	}
	return out, nil
}

// bloomFilterKeys applies s's Bloom filter to the encoded keys,
// returning the keys whose directory entries must still be probed and
// whether the segment can match at all. The counters feed Stats: every filter consultation is a
// probe, every avoided directory lookup a skip. A non-nil sp receives
// the same counts for this one segment.
func (t *Tier[K]) bloomFilterKeys(s *segment, keys []string, op query.Op, sp *trace.SegmentProbe) ([]string, bool) {
	probe := func(n int64) {
		t.bloomProbes.Add(n)
		if sp != nil {
			sp.BloomProbes += int(n)
		}
	}
	skip := func(n int64) {
		t.bloomSkips.Add(n)
		if sp != nil {
			sp.BloomSkips += int(n)
		}
	}
	switch op {
	case query.OpSingle:
		probe(1)
		if !s.bloom.mayContain(keys[0]) {
			skip(1)
			return nil, false
		}
		return keys, true
	case query.OpAnd:
		// One provably-absent key rules out the whole intersection.
		for i, key := range keys {
			probe(1)
			if !s.bloom.mayContain(key) {
				skip(int64(len(keys) - i))
				return nil, false
			}
		}
		return keys, true
	case query.OpOr:
		kept := keys[:0:0]
		for _, key := range keys {
			probe(1)
			if s.bloom.mayContain(key) {
				kept = append(kept, key)
			} else {
				skip(1)
			}
		}
		return kept, len(kept) > 0
	}
	return keys, true
}

// searchSegment collects up to k ranked matches from one segment. A
// non-nil dp receives the segment's execution record.
func (t *Tier[K]) searchSegment(s *segment, keys []string, op query.Op, k int, dp *trace.DiskProbe) ([]query.Item, error) {
	var sp *trace.SegmentProbe
	var start time.Time
	if dp != nil {
		start = time.Now()
		sp = &trace.SegmentProbe{Segment: s.name(), MaxScore: s.maxScore}
		defer func() {
			sp.Nanos = time.Since(start).Nanoseconds()
			dp.AddSegment(*sp)
		}()
	}
	keys, may := t.bloomFilterKeys(s, keys, op, sp)
	if sp != nil {
		sp.BloomPassed = may
	}
	if !may {
		return nil, nil
	}
	dirProbe := func() {
		t.dirProbes.Add(1)
		if sp != nil {
			sp.DirProbes++
		}
	}
	// Posting lists are ranked best-first, every list of one segment in
	// the same total order (score, then ID), so the first k of a list
	// are its top k.
	var posts []uint32
	switch op {
	case query.OpSingle:
		dirProbe()
		posts = s.postings(keys[0])
		if len(posts) > k {
			posts = posts[:k]
		}
	case query.OpOr:
		seen := make(map[uint32]struct{})
		for _, key := range keys {
			dirProbe()
			list := s.postings(key)
			if len(list) > k {
				list = list[:k]
			}
			for _, p := range list {
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					posts = append(posts, p)
				}
			}
		}
		// Read in file order, whatever order the keys came in.
		sort.Slice(posts, func(i, j int) bool { return posts[i] < posts[j] })
	case query.OpAnd:
		// Intersect by counting; lists are short (per-key, per-segment)
		// and post a record at most once (decodeKeys checks). Walking the
		// first list keeps the survivors in rank order.
		counts := make(map[uint32]int)
		var first []uint32
		for i, key := range keys {
			dirProbe()
			list := s.postings(key)
			if i == 0 {
				first = list
			}
			for _, p := range list {
				counts[p]++
			}
		}
		for _, p := range first {
			if counts[p] == len(keys) {
				if posts = append(posts, p); len(posts) == k {
					break
				}
			}
		}
	}
	if sp != nil {
		sp.Candidates = len(posts)
	}
	items := make([]query.Item, 0, len(posts))
	for _, p := range posts {
		b, ord := s.locate(p)
		fr, hit, err := t.readRecordCached(b, ord)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			if hit {
				sp.CacheHits++
			} else {
				sp.CacheMisses++
				sp.RecordsRead++
			}
		}
		items = append(items, query.Item{MB: fr.MB, Score: fr.Score})
	}
	if sp != nil {
		sp.Items = len(items)
	}
	return items, nil
}

// readRecordCached serves a record from the read cache when present,
// falling back to (and then caching) a real file read. hit reports
// whether the cache supplied the record. The cache is keyed by block,
// not segment, so an entry survives every merge of the directories
// above it.
func (t *Tier[K]) readRecordCached(b *block, ord uint32) (FlushRecord, bool, error) {
	if t.cache == nil {
		t.recordReads.Add(1)
		fr, err := t.readRecordRetry(b, ord)
		return fr, false, err
	}
	key := cacheKey{blk: b.id, ord: ord}
	if fr, ok := t.cache.get(key); ok {
		return fr, true, nil
	}
	t.recordReads.Add(1)
	fr, err := t.readRecordRetry(b, ord)
	if err != nil {
		return fr, false, err
	}
	t.cache.put(key, fr)
	return fr, false, nil
}

// readRecordRetry is readRecord under the tier's transient-error retry
// policy: preads are idempotent, so a flaky read (EINTR-class faults,
// overloaded storage) is retried with backoff instead of failing the
// whole search.
func (t *Tier[K]) readRecordRetry(b *block, ord uint32) (FlushRecord, error) {
	var fr FlushRecord
	attempts, err := t.cfg.Retry.DoCounted(func() error {
		var err error
		fr, err = b.readRecord(ord)
		return err
	})
	if attempts > 1 {
		t.cfg.Recorder.Record(blackbox.SubDisk, blackbox.EvDiskRetry,
			int64(attempts-1), int64(ord), 0)
	}
	return fr, err
}

// CheckWritable verifies the tier directory still accepts new segment
// files by creating, writing, syncing and removing a probe file — the
// readiness signal a load balancer needs before routing writes here. It
// deliberately does real I/O — a read-only remount, a deleted directory
// or a full disk fails it — and it passes the same failpoint sites as a
// segment write, so an injected persistent write fault keeps the tier
// unready until cleared, exactly like the real fault it simulates.
func (t *Tier[K]) CheckWritable() error {
	if err := failpoint.Eval(failpoint.DiskSegmentCreate); err != nil {
		return fmt.Errorf("disk: tier directory not writable: %w", err)
	}
	f, err := os.CreateTemp(t.cfg.Dir, ".ready-*")
	if err != nil {
		return fmt.Errorf("disk: tier directory not writable: %w", err)
	}
	name := f.Name()
	ok := false
	defer func() {
		if !ok {
			// The probe error is the one to surface, not the cleanup's.
			_ = f.Close()
			_ = os.Remove(name)
		}
	}()
	probe, fperr := failpoint.EvalWrite(failpoint.DiskSegmentWrite, []byte("ready"))
	if _, err := f.Write(probe); err != nil {
		return fmt.Errorf("disk: write readiness probe: %w", err)
	}
	if fperr != nil {
		return fmt.Errorf("disk: write readiness probe: %w", fperr)
	}
	if err := failpoint.Eval(failpoint.DiskSegmentSync); err != nil {
		return fmt.Errorf("disk: sync readiness probe: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: sync readiness probe: %w", err)
	}
	if err := f.Close(); err != nil {
		ok = true // closed; only the file removal remains
		_ = os.Remove(name)
		return fmt.Errorf("disk: close readiness probe: %w", err)
	}
	ok = true
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("disk: remove readiness probe: %w", err)
	}
	return nil
}

// Levels returns a per-level summary of the live segments.
func (t *Tier[K]) Levels() []LevelStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levelStatsLocked()
}

func (t *Tier[K]) levelStatsLocked() []LevelStats {
	out := make([]LevelStats, len(t.levels))
	for i, lv := range t.levels {
		ls := LevelStats{Level: i, Segments: len(lv)}
		for _, s := range lv {
			ls.Bytes += s.dataBytes()
			ls.Records += int64(s.count)
		}
		out[i] = ls
	}
	return out
}

// CompactionBacklog counts levels currently over their fanout; 0
// whenever compaction is caught up or disabled.
func (t *Tier[K]) CompactionBacklog() int {
	if !t.compactionEnabled() {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	backlog := 0
	for _, lv := range t.levels {
		if len(lv) > t.fanout {
			backlog++
		}
	}
	return backlog
}

// Stats returns a snapshot of tier activity.
func (t *Tier[K]) Stats() Stats {
	t.mu.RLock()
	levels := t.levelStatsLocked()
	pendingRetired := len(t.retired)
	blocks := make(map[*block]struct{})
	var shadowed int64
	for _, lv := range t.levels {
		for _, s := range lv {
			shadowed += s.shadowed
			for _, b := range s.blocks {
				blocks[b] = struct{}{}
			}
		}
	}
	t.mu.RUnlock()
	n := 0
	for _, ls := range levels {
		n += ls.Segments
	}
	st := Stats{
		Layout:              LayoutLeveled.String(),
		Segments:            n,
		Blocks:              len(blocks),
		Levels:              levels,
		ShadowedRecordBytes: shadowed,
		RecordsWritten:      t.recordsWritten.Load(),
		BytesWritten:        t.bytesWritten.Load(),
		Searches:            t.searches.Load(),
		RecordReads:         t.recordReads.Load(),
		Compactions:         t.compactions.Load(),
		CompactionBacklog:   t.CompactionBacklog(),
		CompactionFailures:  t.compactionFailures.Load(),
		PendingRetired:      pendingRetired,
		BuildNanos:          t.buildNanos.Load(),
		InstallNanos:        t.installNanos.Load(),
		BloomProbes:         t.bloomProbes.Load(),
		BloomSkips:          t.bloomSkips.Load(),
		DirProbes:           t.dirProbes.Load(),
	}
	if t.cache != nil {
		st.CacheHits = t.cache.hits.Load()
		st.CacheMisses = t.cache.misses.Load()
		st.CacheEvictions = t.cache.evictions.Load()
		st.CacheBytes = t.cache.resident()
	}
	return st
}

// MaxRecordID returns the highest record ID any segment this tier ever
// installed holds, across restarts: the manifest carries it, and a
// directory without a manifest has it read back from the blocks at Open. The tier keeps every evicted record and search
// deduplicates memory ∪ disk by ID, so the engine must never assign an
// ID at or below it again.
func (t *Tier[K]) MaxRecordID() uint64 { return t.maxID.Load() }

// RangeKeys calls fn once per key of every live directory, with the
// directory's best score: no posting of key in that directory outranks
// it. A key several directories hold is visited once per directory.
func (t *Tier[K]) RangeKeys(fn func(key string, maxScore float64)) {
	segs := t.snapshotSegments()
	for _, s := range segs {
		for _, key := range s.keys {
			fn(key, s.maxScore)
		}
		s.release()
	}
}

// Close waits for the compaction pass in progress — none starts after
// it begins —, commits drain marks no commit has carried yet, and
// releases the tier's references to all segments; handles close once
// in-flight searches drain.
func (t *Tier[K]) Close() error {
	t.closing.Store(true)
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Drain marks no commit has carried yet go out with a last one.
	var err error
	if _, fresh := t.cfg.Logs.marks(t.cfg.Dir); len(fresh) > 0 {
		err = t.commitMarks()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.releaseLevels()
	return err
}

// releaseLevels drops the tier's reference on every live segment.
// Caller must hold mu, or own the tier outright (a failed Open).
func (t *Tier[K]) releaseLevels() {
	for _, lv := range t.levels {
		for _, s := range lv {
			s.release()
		}
	}
	t.levels = nil
}
