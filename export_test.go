package kflushing

import (
	"kflushing/internal/alloc"
	"kflushing/internal/attr"
)

// OpenAlloc is Open with the hot ingest path's allocation policy named:
// "pooled" (or "") is Open's, and "heap" allocates everything from the Go
// heap — the reference pooling must be indistinguishable from.
func OpenAlloc(dir string, opt Options, allocPolicy string) (*System, error) {
	return openRef(dir, opt, 0, 0, allocPolicy)
}

// OpenLevelFanout is OpenAlloc with the disk tier merging a level into
// the next once it holds more than fanout segments.
func OpenLevelFanout(dir string, opt Options, fanout int, allocPolicy string) (*System, error) {
	return openRef(dir, opt, 0, fanout, allocPolicy)
}

// OpenNeverCompact is OpenAlloc with disk compaction off: every flush
// stays its own segment, the layout the equivalence tests and the
// allocation benchmark compare the leveled tier against.
func OpenNeverCompact(dir string, opt Options, allocPolicy string) (*System, error) {
	return openRef(dir, opt, -1, 0, allocPolicy)
}

func openRef(dir string, opt Options, diskMaxSegments, diskLevelFanout int, allocPolicy string) (*System, error) {
	ap, err := alloc.ParsePolicy(allocPolicy)
	if err != nil {
		return nil, err
	}
	as, err := openWith(dir, opt, attr.Keyword(), diskMaxSegments, diskLevelFanout, ap, nil)
	if err != nil {
		return nil, err
	}
	return &System{as}, nil
}
