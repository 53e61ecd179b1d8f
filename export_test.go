package kflushing

import (
	"kflushing/internal/alloc"
	"kflushing/internal/attr"
)

// OpenAlloc is Open with the hot ingest path's allocation policy named:
// "pooled" (or "") is Open's, and "heap" allocates everything from the Go
// heap — the reference pooling must be indistinguishable from.
func OpenAlloc(dir string, opt Options, allocPolicy string) (*System, error) {
	return openRef(dir, opt, 0, allocPolicy)
}

// OpenNeverCompact is OpenAlloc with disk compaction off: every flush
// stays its own segment, the layout the equivalence tests and the
// allocation benchmark compare the leveled tier against.
func OpenNeverCompact(dir string, opt Options, allocPolicy string) (*System, error) {
	return openRef(dir, opt, -1, allocPolicy)
}

func openRef(dir string, opt Options, diskMaxSegments int, allocPolicy string) (*System, error) {
	ap, err := alloc.ParsePolicy(allocPolicy)
	if err != nil {
		return nil, err
	}
	as, err := openWith(dir, opt, attr.Keyword(), diskMaxSegments, ap, nil)
	if err != nil {
		return nil, err
	}
	return &System{as}, nil
}
