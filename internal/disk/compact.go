package disk

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
)

// compactorLabels attributes background compaction CPU to its subsystem
// in profiles.
var compactorLabels = pprof.Labels("kflushing", "background-compactor")

// Compaction merges old segments into fewer, larger ones. Every flush
// writes one segment, so segment counts grow without bound and each
// memory miss pays one directory probe per segment; merging bounds that
// cost. Compaction also deduplicates records: a record trimmed from one
// entry while still memory-resident is persisted early (see
// VictimBuffer.AddPartial), and its keys may appear across several
// segments' directories.
//
// A pass merges a whole overflowing level into one lvl-* segment at the
// next level and commits the swap through the manifest: output renamed
// live → manifest commit (output live, inputs retired) → inputs
// unlinked. A crash between any two of those steps recovers cleanly (see
// openLeveled's rules).

// compactor is the background compaction loop: it waits for a kick
// (sent after each flush install) and runs passes until no level is
// over its fanout. One goroutine, one kick buffered — repeated kicks
// during a pass coalesce.
func (t *Tier[K]) compactor() {
	defer t.compactWG.Done()
	// A compactor panic would silently kill background compaction; dump
	// the flight recorder next to the data it describes, then crash
	// loudly — the rings hold the compaction events that led here.
	defer func() {
		if p := recover(); p != nil {
			if path, err := t.cfg.Recorder.Dump(t.cfg.Dir, "panic"); err == nil && path != "" {
				slog.Error("disk: compactor panic, flight recorder dumped", "dump", path)
			}
			panic(p)
		}
	}()
	pprof.Do(context.Background(), compactorLabels, func(ctx context.Context) {
		for {
			select {
			case <-t.compactStop:
				return
			case <-t.compactKick:
				rtrace.WithRegion(ctx, "compaction-pass", func() {
					if err := t.CompactNow(); err != nil {
						t.compactionFailures.Add(1)
						slog.Error("disk: background compaction failed",
							"dir", t.cfg.Dir, "error", err)
					}
				})
			}
		}
	})
}

// kickCompactor nudges the background compactor; a kick already pending
// is enough.
func (t *Tier[K]) kickCompactor() {
	select {
	case t.compactKick <- struct{}{}:
	default:
	}
}

// overflowLevel returns the shallowest level holding more than fanout
// segments, or -1 when every level is within bounds.
func (t *Tier[K]) overflowLevel() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, lv := range t.levels {
		if len(lv) > t.fanout {
			return i
		}
	}
	return -1
}

// CompactNow runs compaction passes until the tier is within bounds:
// every overflowing level merges into the next (shallowest first, so a
// cascade L0→L1→L2 resolves in one call). Passes serialize on an
// internal gate, so concurrent callers (background compactor, sync
// flush, tooling) cannot double-merge.
func (t *Tier[K]) CompactNow() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if !t.compactionEnabled() {
		return nil
	}
	for {
		// Shutting down: leave remaining overflow for the next open.
		if t.compactStop != nil {
			select {
			case <-t.compactStop:
				return nil
			default:
			}
		}
		lvl := t.overflowLevel()
		if lvl < 0 {
			return nil
		}
		if err := t.compactLevel(lvl, false); err != nil {
			return err
		}
	}
}

// CompactAll merges every live segment into a single one — full
// compaction, used by tooling (it runs whether or not the tier compacts
// on its own) and by tests asserting global ID uniqueness.
func (t *Tier[K]) CompactAll() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Fold the shallowest populated level into the next until one
	// segment remains. Forced merges accept a single input (a plain
	// rewrite one level down), so stragglers cascade into the bottom.
	for {
		t.mu.RLock()
		total, shallowest := 0, -1
		for i, lv := range t.levels {
			if len(lv) > 0 {
				total += len(lv)
				if shallowest < 0 {
					shallowest = i
				}
			}
		}
		t.mu.RUnlock()
		if total < 2 {
			return nil
		}
		if err := t.compactLevel(shallowest, true); err != nil {
			return err
		}
	}
}

// compactLevel merges every segment of level lvl into one segment at
// lvl+1 and commits the swap through the manifest. Caller must hold
// compactMu. The commit protocol, in order, with its crash windows:
//
//	merge to lvl-<seq>.kfs.compact, fsync     (crash: staged orphan)
//	rename to lvl-<seq>.kfs                   (crash: unreferenced lvl
//	                                           file, deleted at open)
//	manifest commit: output live at lvl+1,    (the commit point)
//	                 inputs retired
//	unlink inputs                             (crash: retired files
//	                                           remain, deleted at open)
func (t *Tier[K]) compactLevel(lvl int, force bool) error {
	t.mu.RLock()
	if lvl >= len(t.levels) {
		t.mu.RUnlock()
		return nil
	}
	inputs := append([]*segment(nil), t.levels[lvl]...)
	t.mu.RUnlock()
	if len(inputs) == 0 || (len(inputs) < 2 && !force) {
		return nil
	}
	passStart := time.Now()
	seq := t.seq.Add(1)
	final := filepath.Join(t.cfg.Dir, fmt.Sprintf("lvl-%08d.kfs", seq))
	merged, err := mergeSegmentsTo(inputs, final)
	if err != nil {
		return err
	}
	// The crash window this site names: merged output live on disk, not
	// yet in a committed manifest. Recovery deletes it (its content is a
	// subset of the still-live inputs).
	if err := failpoint.Eval(failpoint.DiskCompactInstall); err != nil {
		merged.release()
		_ = os.Remove(final)
		return err
	}

	names := make([]string, len(inputs))
	for i, s := range inputs {
		names[i] = s.name()
	}
	t.manifestMu.Lock()
	t.mu.Lock()
	t.levels[lvl] = removeSegments(t.levels[lvl], inputs)
	t.ensureLevels(lvl + 2)
	t.levels[lvl+1] = append(t.levels[lvl+1], merged)
	t.retired = append(t.retired, names...)
	t.mu.Unlock()
	if err := t.commitManifest(); err != nil {
		// Roll back the swap: the inputs were the level's oldest prefix
		// (only flush appends, only serialized compaction removes), so
		// restoring them at the front preserves order.
		t.mu.Lock()
		t.levels[lvl] = append(append([]*segment(nil), inputs...), t.levels[lvl]...)
		t.levels[lvl+1] = removeSegments(t.levels[lvl+1], []*segment{merged})
		t.retired = t.retired[:len(t.retired)-len(names)]
		t.mu.Unlock()
		t.manifestMu.Unlock()
		merged.release()
		_ = os.Remove(final)
		return err
	}
	t.manifestMu.Unlock()
	t.compactions.Add(1)
	t.cfg.Recorder.Record(blackbox.SubCompact, blackbox.EvCompactPass,
		int64(lvl), int64(len(inputs)), time.Since(passStart).Nanoseconds())
	slog.Debug("disk: compacted level",
		"dir", t.cfg.Dir, "level", lvl, "inputs", len(inputs),
		"merged", merged.name(), "records", merged.count)

	// Unlink the inputs. The committed manifest already lists them
	// retired, so a crash anywhere below just leaves files the next
	// open deletes. Unlinking while readers still hold the files open
	// is safe (the inode survives until the last close).
	if err := failpoint.Eval(failpoint.DiskCompactRemove); err != nil {
		for _, s := range inputs {
			s.release()
		}
		return err
	}
	var firstErr error
	for _, s := range inputs {
		if err := os.Remove(s.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("disk: remove compacted input: %w", err)
		}
		s.release()
	}
	if firstErr != nil {
		return firstErr
	}
	// All inputs gone; drop them from the retired set so the next
	// manifest commit stops carrying them.
	t.mu.Lock()
	t.retired = removeNames(t.retired, names)
	t.mu.Unlock()
	return nil
}

// removeSegments returns segs minus the members of gone (pointer
// identity), preserving order.
func removeSegments(segs []*segment, gone []*segment) []*segment {
	out := segs[:0]
	for _, s := range segs {
		drop := false
		for _, g := range gone {
			if s == g {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, s)
		}
	}
	// Clear the tail so dropped pointers are not pinned by the backing
	// array.
	for i := len(out); i < len(segs); i++ {
		segs[i] = nil
	}
	return out
}

// removeSegment is removeSegments for a single member.
func removeSegment(segs []*segment, gone *segment) []*segment {
	return removeSegments(segs, []*segment{gone})
}

// removeNames returns names minus the members of gone, preserving order.
func removeNames(names []string, gone []string) []string {
	goneSet := make(map[string]struct{}, len(gone))
	for _, g := range gone {
		goneSet[g] = struct{}{}
	}
	out := names[:0]
	for _, n := range names {
		if _, drop := goneSet[n]; !drop {
			out = append(out, n)
		}
	}
	for i := len(out); i < len(names); i++ {
		names[i] = ""
	}
	return out
}

// mergeSegmentsTo reads every record of the inputs, deduplicates by
// record ID (copies are identical), and writes one merged segment at
// final. The merged directory is the union of the input directories
// with ordinals remapped — directories are carried over, not
// recomputed, so the merge is attribute-agnostic and preserves whatever
// keys the writer indexed.
func mergeSegmentsTo(inputs []*segment, final string) (*segment, error) {
	// Pass 1: collect unique records newest-input-first, remembering
	// each input ordinal's record ID for the directory remap.
	ids := make([][]uint64, len(inputs)) // per input: ordinal → record ID
	seen := make(map[uint64]struct{})
	var recs []FlushRecord
	for i := len(inputs) - 1; i >= 0; i-- {
		s := inputs[i]
		ids[i] = make([]uint64, s.count)
		for ord := uint32(0); ord < s.count; ord++ {
			fr, err := s.readRecord(ord)
			if err != nil {
				return nil, fmt.Errorf("disk: compact read %s: %w", s.path, err)
			}
			ids[i][ord] = uint64(fr.MB.ID)
			if _, dup := seen[uint64(fr.MB.ID)]; dup {
				continue
			}
			seen[uint64(fr.MB.ID)] = struct{}{}
			recs = append(recs, fr)
		}
	}
	// Rank the merged records best-score-first, fixing the mapping.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := recs[order[a]], recs[order[b]]
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		return x.MB.ID > y.MB.ID
	})
	ranked := make([]FlushRecord, len(recs))
	finalOrd := make(map[uint64]uint32, len(recs))
	for newPos, oldPos := range order {
		ranked[newPos] = recs[oldPos]
		finalOrd[uint64(recs[oldPos].MB.ID)] = uint32(newPos)
	}

	// Pass 2: union the input directories under the remapped ordinals.
	dir := make(map[string][]uint32)
	seenKeyOrd := make(map[string]map[uint32]struct{})
	for i := len(inputs) - 1; i >= 0; i-- {
		s := inputs[i]
		for key, ords := range s.dir {
			ko := seenKeyOrd[key]
			if ko == nil {
				ko = make(map[uint32]struct{})
				seenKeyOrd[key] = ko
			}
			for _, ord := range ords {
				mapped := finalOrd[ids[i][ord]]
				if _, dup := ko[mapped]; dup {
					continue
				}
				ko[mapped] = struct{}{}
				dir[key] = append(dir[key], mapped)
			}
		}
	}
	for key := range dir {
		ords := dir[key]
		sort.Slice(ords, func(a, b int) bool { return ords[a] < ords[b] })
	}

	// Write to a temp path first for atomicity. The output is always
	// current-version: compaction upgrades pre-Bloom inputs to
	// Bloom-bearing segments.
	tmp := final + ".compact"
	merged, _, err := writeSegment(tmp, ranked, dir, nil)
	if err != nil {
		return nil, err
	}
	// Close the temp handle, rename, and reopen under the final name.
	// The rename is atomic on POSIX filesystems.
	if err := merged.close(); err != nil {
		return nil, err
	}
	if err := failpoint.Eval(failpoint.DiskCompactRename); err != nil {
		_ = os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(final)); err != nil {
		return nil, err
	}
	reopened, err := openSegment(final)
	if err != nil {
		return nil, fmt.Errorf("disk: reopen merged segment: %w", err)
	}
	return reopened, nil
}

// Segments returns the live segment names in priority order (L0
// oldest-first, then each deeper level), for tests and tooling.
func (t *Tier[K]) Segments() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for _, lv := range t.levels {
		for _, s := range lv {
			out = append(out, filepath.Base(s.path))
		}
	}
	return out
}
