package index

import (
	"math"
	"sync"
	"sync/atomic"

	"kflushing/internal/types"
)

// Bound is a key's ceiling as a search reads it: the rank of the best
// posting of the key that has left memory — its score, ties broken by
// record ID, in query.Less order — or −∞ with ID 0 when none has.
type Bound struct {
	Score float64
	ID    types.ID
}

// none is the bound of a complete key.
var none = Bound{Score: math.Inf(-1)}

// Complete reports whether no posting of the key ever left memory.
func (b Bound) Complete() bool { return b == none }

// Below reports whether a posting scoring score with record ID id ranks
// strictly above b: above everything of the key that left memory.
func (b Bound) Below(score float64, id types.ID) bool {
	return score > b.Score || score == b.Score && id > b.ID
}

// ceiling is the best score of any posting of a key that has left
// memory, encoded so that unsigned order is score order and the zero
// value means "none has": a key whose ceiling is zero is complete —
// every posting it ever had is still in memory.
type ceiling uint64

// ceilingOf encodes score (flip the sign bit of a positive float, every
// bit of a negative one). The encoding of −∞ is above zero, so no score
// is confused with "none".
func ceilingOf(score float64) ceiling {
	b := math.Float64bits(score)
	if b>>63 == 1 {
		return ceiling(^b)
	}
	return ceiling(b | 1<<63)
}

// score decodes c, −∞ for none.
func (c ceiling) score() float64 {
	switch b := uint64(c); {
	case c == 0:
		return math.Inf(-1)
	case b>>63 == 1:
		return math.Float64frombits(b &^ (1 << 63))
	default:
		return math.Float64frombits(^b)
	}
}

// departures remembers the ceilings of keys whose entries died, so a
// search for an absent key, and the entry a later posting re-creates,
// start from them. It is fixed-size, half a departed-key bit filter (two
// bits per key) and half a table of per-key ceilings, the *ghosts*, like
// the ghost lists of ARC-style buffer managers: a bounded history of
// evicted keys.
//
// The table is an array of 64-byte buckets, each a floor and
// ghostsPerBucket ghosts. A ghost is one word: a 16-bit fingerprint of
// its key and the key's ceiling rounded up to 48 bits (ghostOf); zero is
// an empty slot, since every ceiling's high bits are non-zero. Each key
// hashes to one bucket. A departure raises the key's ghost, or takes an
// empty slot; when the bucket is full the lowest of its ghosts and the
// new one is folded into the floor, and the slot it leaves takes the new
// ghost. A read returns the maximum of the floor and every ghost of the
// bucket carrying the key's fingerprint.
//
// Everything errs upward only: a filter false positive, a floor, a
// fingerprint shared with another key or the rounding can raise a
// key's ceiling, turning an exact memory answer into a disk search,
// never the reverse. A key the filter admits but its bucket does not
// know, with the floor zero, never departed — every departure leaves a
// ghost or a floor at least its ceiling — so the table also undoes the
// filter's false positives. The record keeps scores only; whoever reads
// a ceiling back stamps it with an ID no departed posting exceeds
// (Index.ceilingAt).
//
// Reads take no lock: every word is one atomic. Writers serialize on mu
// and raise the floor before they overwrite the ghost it covers, and a
// read loads the ghosts before the floor, so a read that misses a
// folded ghost sees the floor.
type departures struct {
	bits   []atomic.Uint64
	ghosts []atomic.Uint64 // buckets of bucketWords words: the floor, then the ghosts

	mu       sync.Mutex   // serializes publishers; readers take no lock
	occupied atomic.Int64 // ghost slots ever filled (slots never empty again)
}

const (
	// bucketWords is a bucket's size in words: 64 bytes, one cache line.
	bucketWords = 8
	// ghostsPerBucket is the ghosts a bucket holds beside its floor.
	ghostsPerBucket = bucketWords - 1
	// ghostCeilingBits is the width of a ghost's rounded ceiling; the
	// fingerprint takes the word's remaining high bits.
	ghostCeilingBits = 48
	ghostCeilingMask = 1<<ghostCeilingBits - 1

	// minDepartedBytes is the smallest record: a filter of eight words
	// beside one bucket.
	minDepartedBytes = 2 * bucketWords * 8
	// maxDepartedBytes caps the record whatever the budget: 2²⁶ filter
	// bits and 2¹⁷ buckets (917 504 ghosts), 1/64 of a 1 GiB budget.
	// What the record must hold is the keys one flush pass evicts, not
	// a share of the budget.
	maxDepartedBytes = 16 << 20
)

// Source says what served a departed ceiling, in
// metrics.DepartedSourceNames order.
type Source int

const (
	// SourceNone: the key never departed — the filter or the table says
	// so — and reads complete.
	SourceNone Source = iota
	// SourceGhost: a ghost carrying the key's fingerprint.
	SourceGhost
	// SourceFloor: the bucket's floor, above any matching ghost.
	SourceFloor
)

// newDepartures sizes the record to the largest power of two not above
// bytes, within [minDepartedBytes, maxDepartedBytes], half filter, half
// ghost buckets.
func newDepartures(bytes int64) *departures {
	n := int64(minDepartedBytes)
	for n*2 <= min(bytes, maxDepartedBytes) {
		n *= 2
	}
	words := n / 16
	return &departures{bits: make([]atomic.Uint64, words), ghosts: make([]atomic.Uint64, words)}
}

// Bytes is the record's fixed footprint.
func (d *departures) Bytes() int64 { return int64(len(d.bits)+len(d.ghosts)) * 8 }

// GhostLoad is the fraction of ghost slots holding a ceiling.
func (d *departures) GhostLoad() float64 {
	return float64(d.occupied.Load()) / float64(len(d.ghosts)/bucketWords*ghostsPerBucket)
}

// probe is where a key lives in the record.
type probe struct {
	b1, b2 uint64 // filter bits
	g      int    // the first word of the key's bucket
	fp     uint64 // the fingerprint, in a ghost's high bits
}

// probes derives a key's filter bits, bucket and fingerprint from h1,
// its index hash: the filter's first bit from the hash itself, its
// second from a remix of it and the ghost fields from a remix of that,
// so keys sharing a shard do not share them. Both sizes are powers of
// two.
func (d *departures) probes(h1 uint64) probe {
	h2 := h1 * 0x9e3779b97f4a7c15
	h2 ^= h2 >> 29
	h3 := h2 * 0xbf58476d1ce4e5b9
	h3 ^= h3 >> 31
	bitMask := uint64(len(d.bits))*64 - 1
	bucketMask := uint64(len(d.ghosts)/bucketWords - 1)
	return probe{
		b1: h1 & bitMask, b2: h2 & bitMask,
		g:  int(h3&bucketMask) * bucketWords,
		fp: h3 >> ghostCeilingBits << ghostCeilingBits,
	}
}

// ghostOf rounds c up to a ghost's width: its high bits, plus one when
// a positive score drops low bits. A negative score's encoding is its
// bits inverted, so the bits it drops are refilled with ones when read
// back (ceilingOfGhost). Either way a score with at most 36 mantissa
// bits, any integer below 2³⁷ among them, reads back exactly. Only a
// NaN's encoding has every high bit set, with nothing to round up to.
func ghostOf(c ceiling) uint64 {
	const low = 64 - ghostCeilingBits
	g := uint64(c) >> low
	if uint64(c)>>63 == 1 && uint64(c)<<ghostCeilingBits != 0 && g < ghostCeilingMask {
		g++
	}
	return g
}

// ceilingOfGhost widens a ghost's ceiling back, at or above what
// ghostOf rounded.
func ceilingOfGhost(g uint64) ceiling {
	const low = 64 - ghostCeilingBits
	c := (g & ghostCeilingMask) << low
	if c>>63 == 0 && c != 0 {
		c |= 1<<low - 1
	}
	return ceiling(c)
}

// publish records that the postings up to b of the key hashing to h
// left memory. The table is raised before the filter bits are set, so a
// reader that sees the bits sees the ghost or the floor covering it.
func (d *departures) publish(h uint64, b Bound) {
	if b.Complete() {
		return
	}
	c := ceilingOf(b.Score)
	p := d.probes(h)
	d.mu.Lock()
	d.keep(p, c)
	d.mu.Unlock()
	atomicOr(&d.bits[p.b1/64], 1<<(p.b1%64))
	atomicOr(&d.bits[p.b2/64], 1<<(p.b2%64))
}

// keep raises the key's ghost to c, gives it one or folds the lowest
// ghost of its bucket into the floor. Callers hold d.mu.
func (d *departures) keep(p probe, c ceiling) {
	g := ghostOf(c)
	free, low, lowG := -1, -1, g // an empty slot; the lowest ghost below the new one
	for i := p.g + 1; i < p.g+bucketWords; i++ {
		switch v := d.ghosts[i].Load(); {
		case v == 0:
			free = i
		case v&^ghostCeilingMask == p.fp:
			if v&ghostCeilingMask < g {
				d.ghosts[i].Store(p.fp | g)
			}
			return
		case v&ghostCeilingMask < lowG:
			low, lowG = i, v&ghostCeilingMask
		}
	}
	switch {
	case free >= 0:
		d.ghosts[free].Store(p.fp | g)
		d.occupied.Add(1)
	case low < 0:
		// The new ghost is the lowest: the floor takes it.
		atomicMax(&d.ghosts[p.g], uint64(c))
	default:
		// The floor first: a reader that sees the new ghost sees it.
		atomicMax(&d.ghosts[p.g], uint64(ceilingOfGhost(lowG)))
		d.ghosts[low].Store(p.fp | g)
	}
}

// lookup returns the ceiling a new entry for the key hashing to h
// starts from, and what served it: zero when the key never departed,
// the higher of the floor and its matching ghosts otherwise. The ghosts
// are read before the floor.
func (d *departures) lookup(h uint64) (ceiling, Source) {
	p := d.probes(h)
	if d.bits[p.b1/64].Load()&(1<<(p.b1%64)) == 0 || d.bits[p.b2/64].Load()&(1<<(p.b2%64)) == 0 {
		return 0, SourceNone
	}
	var ghost uint64
	for i := p.g + 1; i < p.g+bucketWords; i++ {
		if v := d.ghosts[i].Load(); v&^ghostCeilingMask == p.fp && v != 0 {
			ghost = max(ghost, v&ghostCeilingMask)
		}
	}
	floor := ceiling(d.ghosts[p.g].Load())
	switch c := ceilingOfGhost(ghost); {
	case ghost == 0 && floor == 0:
		return 0, SourceNone
	case c >= floor:
		return c, SourceGhost
	default:
		return floor, SourceFloor
	}
}

func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if old >= v || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func atomicOr(a *atomic.Uint64, mask uint64) {
	for {
		old := a.Load()
		if old&mask == mask || a.CompareAndSwap(old, old|mask) {
			return
		}
	}
}
