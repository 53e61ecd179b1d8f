// Package query defines the basic top-k search query model (Section
// II-B) and the ranked-merge helpers shared by the in-memory query
// engine and the disk tier.
//
// A basic search query carries a search criteria (one or more keys on a
// single attribute), a result limit k, and uses the ranking scores
// pre-computed at arrival. Multi-key queries combine keys with OR (any
// key matches) or AND (all keys must match), the two forms major
// microblog services support (Section IV-D).
package query

import (
	"sort"

	"kflushing/internal/trace"
	"kflushing/internal/types"
)

// Op is the combination operator of a multi-key query.
type Op int

const (
	// OpSingle queries exactly one key.
	OpSingle Op = iota
	// OpOr returns microblogs matching any of the keys.
	OpOr
	// OpAnd returns microblogs matching all of the keys.
	OpAnd
)

// String returns the operator's conventional spelling.
func (o Op) String() string {
	switch o {
	case OpSingle:
		return "single"
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	default:
		return "op?"
	}
}

// Item is one ranked candidate: a microblog and its ranking score.
type Item struct {
	MB    *types.Microblog
	Score float64
}

// Less orders items descending by (score, ID): the ranking order of
// query answers.
func Less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.MB.ID > b.MB.ID
}

// SortRanked sorts items into ranking order (best first).
func SortRanked(items []Item) {
	sort.Slice(items, func(i, j int) bool { return Less(items[i], items[j]) })
}

// MergeTopK merges pre-ranked candidate lists into the global top-k,
// deduplicating by microblog ID. Input lists need not be sorted.
func MergeTopK(lists [][]Item, k int) []Item {
	var all []Item
	seen := make(map[types.ID]struct{})
	for _, l := range lists {
		for _, it := range l {
			if _, dup := seen[it.MB.ID]; dup {
				continue
			}
			seen[it.MB.ID] = struct{}{}
			all = append(all, it)
		}
	}
	SortRanked(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// IntersectTopK returns the top-k items present in every list (matched
// by microblog ID). Lists need not be sorted.
func IntersectTopK(lists [][]Item, k int) []Item {
	if len(lists) == 0 {
		return nil
	}
	if len(lists) == 1 {
		out := append([]Item(nil), lists[0]...)
		SortRanked(out)
		if len(out) > k {
			out = out[:k]
		}
		return out
	}
	// Count occurrences by ID; an item is in the intersection when it
	// appears in all lists. Within one list duplicates are impossible
	// (an entry holds one posting per record).
	counts := make(map[types.ID]int)
	keep := make(map[types.ID]Item)
	for _, l := range lists {
		for _, it := range l {
			counts[it.MB.ID]++
			keep[it.MB.ID] = it
		}
	}
	var out []Item
	for id, c := range counts {
		if c == len(lists) {
			out = append(out, keep[id])
		}
	}
	SortRanked(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Request is a fully-specified basic search query over keys of type K.
type Request[K comparable] struct {
	// Keys are the search criteria values; OpSingle uses Keys[0].
	Keys []K
	// Op combines multiple keys.
	Op Op
	// K is the result limit; 0 selects the engine default.
	K int
	// Trace, when non-nil, collects the end-to-end execution record of
	// the query (memory probe, per-segment disk activity, stage
	// timings). Nil — the default — disables tracing at zero cost.
	Trace *trace.Trace
}

// Result is a query answer with its provenance.
type Result struct {
	// Items are the ranked answers, best first; may hold fewer than k
	// when fewer matches exist anywhere in the system.
	Items []Item
	// MemoryHit reports whether the answer came from main memory without
	// consulting the disk tier. A hit is always the exact answer: memory
	// answers only when every queried key's k postings rank above all it
	// ever lost (the paper's hit, "filled"), or otherwise provably
	// ("complete"): a key never lost a posting, so what memory holds of
	// it, even fewer than k or none, is all there is; or, for one key or
	// OR, memory's k-th answer ranks above everything the keys lost.
	MemoryHit bool
	// DiskChecked reports whether the disk tier was consulted.
	DiskChecked bool
}
