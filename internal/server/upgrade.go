package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"kflushing/internal/attr"
	"kflushing/internal/disk"
	"kflushing/internal/spatial"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// Upgrade turns a kflushd data directory an older build wrote, whose
// attributes kept one log each in their own directories, into one whose
// attributes share the log in dir/keyword, offline. First each
// attribute's records its log still replays are posted in a directory of
// that attribute, and every one of its log files is marked drained, so
// no old file replays again; then the spatial and user log files move
// into dir/keyword under fresh sequence numbers, their directories
// re-pointed at the new names and the keyword manifest listing them
// drained (disk.MoveLogs). The store's IDs resume past the highest mark
// of the three tiers, as they do at every open. Each step leaves a
// directory the next Upgrade completes, and a directory in the current
// layout is left as it is, file for file.
func Upgrade(dir string) error {
	owner := filepath.Join(dir, "keyword")
	others := []string{filepath.Join(dir, "spatial"), filepath.Join(dir, "user")}
	split := false
	for _, d := range others {
		names, err := disk.LogFileNames(d)
		if err != nil {
			return err
		}
		split = split || len(names) > 0
	}
	if !split {
		return nil
	}
	grid := spatial.DefaultGrid()
	for _, err := range []error{
		settle(owner, attr.Keyword()),
		settle(others[0], attr.Spatial(grid)),
		settle(others[1], attr.User()),
	} {
		if err != nil {
			return err
		}
	}
	for _, d := range others {
		if err := disk.MoveLogs(d, owner); err != nil {
			return err
		}
	}
	return nil
}

// settle posts the records the log in tier directory dir still replays
// — one copy per ID, only those the attribute indexes — in one new
// directory of the tier, and marks every log file of dir drained. A tier
// whose log replays nothing is not touched.
func settle[K comparable](dir string, spec attr.Spec[K]) (err error) {
	names, err := disk.LogFileNames(dir)
	if err != nil {
		return err
	}
	m, err := disk.ReadManifest(dir)
	if err != nil && len(names) > 0 {
		return fmt.Errorf("server: upgrade %s: %w", dir, err)
	}
	if !slices.ContainsFunc(names, func(name string) bool { return !slices.Contains(m.Drained, name) }) {
		return nil
	}
	tier, err := disk.Open(disk.Config[K]{
		Dir: dir, KeysOf: spec.KeysOf, Encode: spec.Encode,
		Logged: true, MaxSegments: -1, CacheBytes: -1,
	})
	if err != nil {
		return err
	}
	var drainErr error
	w, err := wal.Open(dir, wal.Options{
		Drained:   tier.LogDrained,
		OnDrained: func(seq uint32) { drainErr = errors.Join(drainErr, tier.DrainLog(seq)) },
	})
	if err != nil {
		return errors.Join(err, tier.Close())
	}
	defer func() {
		// The log's close first: the tier's close commits the drain marks.
		err = errors.Join(err, w.Close(), drainErr, tier.Close())
	}()
	var recs []disk.FlushRecord
	at := make(map[types.ID]int)
	err = w.Replay(func(fr disk.FlushRecord) error {
		switch i, dup := at[fr.MB.ID]; {
		case len(spec.KeysOf(fr.MB)) == 0:
			w.Release(fr.ReplaySeq, fr.LogSeq, 1)
		case dup:
			w.Release(recs[i].ReplaySeq, recs[i].LogSeq, 1)
			recs[i] = fr
		default:
			at[fr.MB.ID] = len(recs)
			recs = append(recs, fr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := tier.Flush(recs); err != nil {
		return err
	}
	for _, fr := range recs {
		w.Release(fr.ReplaySeq, fr.LogSeq, 1)
	}
	return nil
}
