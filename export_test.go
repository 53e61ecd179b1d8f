package kflushing

import "kflushing/internal/attr"

// OpenNeverCompact is Open with disk compaction off: every flush stays
// its own segment, the layout the equivalence tests and the allocation
// benchmark compare the leveled tier against.
func OpenNeverCompact(dir string, opt Options) (*System, error) {
	as, err := openTier(dir, opt, attr.Keyword(), -1)
	if err != nil {
		return nil, err
	}
	return &System{as}, nil
}
