package disk

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"

	"kflushing/internal/blackbox"
	"kflushing/internal/failpoint"
)

// Compaction merges old segments into fewer, larger ones. Every flush
// writes one segment, so segment counts grow without bound and each
// memory miss pays one directory probe per segment; merging bounds that
// cost. It merges directories only: microblogs are immutable and never
// deleted, so a record block holds nothing a merge could reclaim, and
// the output names its inputs' blocks instead of copying them. Merging
// also deduplicates: a record stored in two blocks (a crash-recovery
// replay re-flushes records an earlier segment already holds) is posted
// once, from the newest.
//
// A pass merges a whole overflowing level into one lvl-* directory at
// the next level and commits the swap through the manifest: output
// renamed live → manifest commit (output live, inputs retired) → inputs
// unlinked. A crash between any two of those steps recovers cleanly (see
// openLeveled's rules).

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
// internal gate, so concurrent callers (the goroutine that ran a flush
// cycle, tooling) cannot double-merge; a caller that finds a pass in
// progress waits for it, then merges whatever overflow is left. Once
// Close has begun, no further pass starts.
func (t *Tier[K]) CompactNow() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if !t.compactionEnabled() {
		return nil
	}
	for !t.closing.Load() {
		lvl := t.overflowLevel()
		if lvl < 0 {
			return nil
		}
		if err := t.compactLevel(lvl, false); err != nil {
			return err
		}
	}
	return nil
}

// CompactAll merges every live segment into a single one — full
// compaction, used by tooling (it runs whether or not the tier compacts
// on its own) and by tests asserting global ID uniqueness.
func (t *Tier[K]) CompactAll() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Fold the shallowest populated level into the next until one
	// segment remains. Forced merges accept a single input (its
	// directory rewritten one level down), so stragglers cascade into
	// the bottom. Once Close has begun, no further pass starts.
	for !t.closing.Load() {
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
	return nil
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
//	unlink fully shadowed blocks              (crash: unnamed blk files
//	                                           remain, deleted at open;
//	                                           a log file goes only once
//	                                           drained, see LogSet.Drain)
//
// No block is read-modify-written or unlinked before the commit, so
// every window before it leaves the inputs exactly as they were. A
// failed pass is counted (Stats.CompactionFailures), whoever ran it.
func (t *Tier[K]) compactLevel(lvl int, force bool) (err error) {
	defer func() {
		if err != nil {
			t.compactionFailures.Add(1)
		}
	}()
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
	merged, dropped, err := mergeSegments(inputs, filepath.Join(t.cfg.Dir, fmt.Sprintf("lvl-%08d.kfs", seq)))
	if err != nil {
		return err
	}
	st, err := stage(kindMerged, merged.path, merged.encode(nil))
	if err != nil {
		merged.release()
		return err
	}
	merged.size = st.size
	abandon := func() {
		merged.release()
		st.discard()
	}
	if err := st.install(); err != nil {
		abandon()
		return err
	}
	// The crash window this site names: merged output live on disk, not
	// yet in a committed manifest. Recovery deletes it (every posting in
	// it is still held by the live inputs).
	if err := failpoint.Eval(failpoint.DiskCompactInstall); err != nil {
		abandon()
		return err
	}

	// The input files the commit retires.
	names := make([]string, len(inputs))
	for i, in := range inputs {
		names[i] = in.name()
	}
	t.manifestMu.Lock()
	t.mu.Lock()
	t.levels[lvl] = removeSegments(t.levels[lvl], inputs)
	t.ensureLevels(lvl + 2)
	t.levels[lvl+1] = append(t.levels[lvl+1], merged)
	t.retired = append(t.retired, names...)
	t.mu.Unlock()
	err = t.commitManifest()
	if err != nil && !errors.Is(err, ErrCommitUnsynced) {
		// Roll back the swap: the inputs were the level's oldest prefix
		// (only flush appends, only serialized compaction removes), so
		// restoring them at the front preserves order.
		t.mu.Lock()
		t.levels[lvl] = append(append([]*segment(nil), inputs...), t.levels[lvl]...)
		t.levels[lvl+1] = removeSegments(t.levels[lvl+1], []*segment{merged})
		t.retired = t.retired[:len(t.retired)-len(names)]
		t.mu.Unlock()
		t.manifestMu.Unlock()
		abandon()
		return err
	}
	t.manifestMu.Unlock()
	t.compactions.Add(1)
	t.cfg.Recorder.Record(blackbox.SubCompact, blackbox.EvCompactPass,
		int64(lvl), int64(len(inputs)), time.Since(passStart).Nanoseconds())
	slog.Debug("disk: compacted level",
		"dir", t.cfg.Dir, "level", lvl, "inputs", len(inputs),
		"merged", merged.name(), "records", merged.count, "blocks", len(merged.blocks))

	// Unlink the retired inputs. The committed manifest already lists
	// them, so a crash anywhere below just leaves files the next open
	// deletes. Unlinking while readers still hold the files open is safe
	// (the inode survives until the last close). A commit that stands
	// unsynced unlinks nothing: a crash may bring back the manifest that
	// names the inputs live. They stay retired, for the next open.
	if err == nil {
		err = failpoint.Eval(failpoint.DiskCompactRemove)
	}
	if err != nil {
		for _, s := range inputs {
			s.release()
		}
		return err
	}
	var firstErr error
	for _, name := range names {
		if err := unlink(unlinkPlain, filepath.Join(t.cfg.Dir, name)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("disk: remove compacted input: %w", err)
		}
	}
	for _, s := range inputs {
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

	// A block is unlinked only after every directory file naming it is
	// gone: the inputs just were, and a directory outside this merge
	// (adoption can leave two naming one block) keeps it.
	for _, b := range dropped {
		if b.isLog() {
			// A log file's records may still be claimed by memory: it
			// goes only once drained.
			if _, err := t.cfg.Logs.remove(b.name()); err != nil {
				return err
			}
			continue
		}
		t.mu.RLock()
		named := t.namesFileLocked(b.name())
		t.mu.RUnlock()
		if named {
			continue
		}
		if err := unlink(unlinkPlain, b.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("disk: remove shadowed block: %w", err)
		}
	}
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

// mergeSegments builds the one directory that replaces inputs (oldest
// first): its block table is the union of theirs, its keys the union of
// theirs, and each key's postings their lists merged by rank. Keys and
// postings are carried over, not recomputed, so the merge is
// attribute-agnostic and preserves whatever keys the writer indexed. No
// record is decoded: rank and identity come from the rank prefix read
// in one sequential pass per block.
//
// Only posted records count. A record block's records are all posted by
// the directories naming it, but a log file also frames records still in
// memory, or posted by directories outside the merge. A record ID posted
// from several frames is posted from the newest only — postings of the
// older copies are rewritten to it — and a block left with no posted
// record of its own is not named by the output; those come back as
// dropped. The returned segment holds its own block references and is
// not yet on disk.
func mergeSegments(inputs []*segment, path string) (merged *segment, dropped []*block, err error) {
	var union []*block
	at := make(map[*block]int) // block → index in union
	for _, in := range inputs {
		for _, b := range in.blocks {
			if _, ok := at[b]; !ok {
				at[b] = len(union)
				union = append(union, b)
			}
		}
	}
	ubase := make([]uint32, len(union)+1)
	for i, b := range union {
		ubase[i+1] = ubase[i] + b.count()
	}
	total := ubase[len(union)]
	// cposts[i][k] is the union ordinal of inputs[i]'s k-th posting and,
	// once canon is known, the ordinal that stands for it.
	cposts := make([][]uint32, len(inputs))
	posted := make([]bool, total)
	nposted := 0
	for i, in := range inputs {
		from := make([]uint32, len(in.blocks))
		for j, b := range in.blocks {
			from[j] = ubase[at[b]]
		}
		cp := make([]uint32, len(in.posts))
		for k, p := range in.posts {
			j := in.slot(p)
			u := from[j] + p - in.base[j]
			if !posted[u] {
				posted[u] = true
				nposted++
			}
			cp[k] = u
		}
		cposts[i] = cp
	}
	ids := make([]uint64, total)
	scores := make([]float64, total)
	for i, b := range union {
		from, to := ubase[i], ubase[i+1]
		if err := b.scanRanks(ids[from:to], scores[from:to], posted[from:to]); err != nil {
			return nil, nil, fmt.Errorf("disk: compact: %w", err)
		}
	}
	// canon[o] is the ordinal that stands for posted record o: the copy
	// of its ID in the newest block (copies are identical).
	canon := make([]uint32, total)
	newest := make(map[uint64]uint32, nposted)
	for o := total; o > 0; {
		o--
		if !posted[o] {
			continue
		}
		if c, dup := newest[ids[o]]; dup {
			canon[o] = c
		} else {
			newest[ids[o]] = o
			canon[o] = o
		}
	}
	// out[o] is canon[o] renumbered for the output's block table, which
	// leaves out the blocks none of whose posted records stand for
	// themselves. What else a record block holds is dead weight, counted
	// as shadowed; what else a log file frames is the log's.
	var kept []*block
	var live uint32
	var shadowed int64
	out := make([]uint32, total)
	gone := uint32(0)
	for i, b := range union {
		n := uint32(0)
		var dead int64
		isLog := b.isLog()
		for o := ubase[i]; o < ubase[i+1]; o++ {
			out[o] = o - gone
			if posted[o] && canon[o] == o {
				n++
			} else if !isLog {
				dead += b.recordBytes(o - ubase[i])
			}
		}
		if n == 0 {
			dropped = append(dropped, b)
			gone += b.count()
			continue
		}
		kept = append(kept, b)
		live += n
		shadowed += dead
	}
	for o, c := range canon {
		out[o] = out[c]
	}

	for _, b := range kept {
		b.acquire()
	}
	merged = newSegment(path, kept)
	merged.count = live
	merged.shadowed = shadowed
	merged.maxScore = math.Inf(-1)
	nkeys, nposts := 0, 0
	// cursors[i] walks inputs[i]: its next key, and its postings as the
	// union ordinals that stand for them.
	type cursor struct {
		in    *segment
		next  int
		posts []uint32
	}
	cursors := make([]cursor, len(inputs))
	for i, in := range inputs {
		c := cursor{in: in, posts: cposts[i]}
		for k, u := range c.posts {
			c.posts[k] = canon[u]
		}
		cursors[i] = c
		merged.maxScore = math.Max(merged.maxScore, in.maxScore)
		nkeys = max(nkeys, len(in.keys))
		nposts += len(in.posts)
	}
	better := func(a, b uint32) bool {
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return ids[a] > ids[b]
	}
	merged.keys = make([]string, 0, nkeys)
	merged.start = make([]uint32, 1, nkeys+1)
	merged.posts = make([]uint32, 0, nposts)
	var lists [][]uint32 // each input's postings of the key still to merge
	for {
		// The smallest key any input has not yet given, and every
		// input's list for it.
		key, found := "", false
		for _, c := range cursors {
			if c.next < len(c.in.keys) && (!found || c.in.keys[c.next] < key) {
				key, found = c.in.keys[c.next], true
			}
		}
		if !found {
			break
		}
		lists = lists[:0]
		for i := range cursors {
			c := &cursors[i]
			if c.next < len(c.in.keys) && c.in.keys[c.next] == key {
				lists = append(lists, c.posts[c.in.start[c.next]:c.in.start[c.next+1]])
				c.next++
			}
		}
		// Merge by rank. Copies of one record map to one ordinal and
		// rank equal, so they arrive back to back: post the first.
		from := len(merged.posts)
		for {
			best := -1
			for i, l := range lists {
				if len(l) > 0 && (best < 0 || better(l[0], lists[best][0])) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			o := out[lists[best][0]]
			lists[best] = lists[best][1:]
			if n := len(merged.posts); n == from || merged.posts[n-1] != o {
				merged.posts = append(merged.posts, o)
			}
		}
		merged.keys = append(merged.keys, key)
		merged.start = append(merged.start, uint32(len(merged.posts)))
	}
	merged.sealKeys()
	merged.bloom = newBloomFilter(merged.keys)
	return merged, dropped, nil
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
