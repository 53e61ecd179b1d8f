package index

import (
	"math"
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

// departures remembers the ceilings of keys whose entries died, so the
// entry a later posting re-creates starts from them: a departed-key bit
// filter (two bits per key) and a hashed max-array of ceilings. Both are
// fixed-size and lossy in the safe direction only — a filter false
// positive or a shared slot can raise a key's ceiling, turning an exact
// memory answer into a disk search, never the reverse. The record keeps
// scores only; whoever reads a ceiling back stamps it with an ID no
// departed posting exceeds (Index.ceilingAt).
type departures struct {
	bits  []atomic.Uint64
	slots []atomic.Uint64 // ceilings; the max over every key mapped here
}

// minDepartedBytes is the smallest record: one filter word, one slot.
const minDepartedBytes = 16

// newDepartures sizes the record to the largest power of two not above
// bytes (at least minDepartedBytes), half filter, half slots.
func newDepartures(bytes int64) *departures {
	n := int64(minDepartedBytes)
	for n*2 <= bytes {
		n *= 2
	}
	words := n / 16
	return &departures{bits: make([]atomic.Uint64, words), slots: make([]atomic.Uint64, words)}
}

// Bytes is the record's fixed footprint.
func (d *departures) Bytes() int64 { return int64(len(d.bits)+len(d.slots)) * 8 }

// probes derives a key's two filter bits and its slot from h1, its
// index hash: the filter's first bit from the hash itself, the second
// bit and the slot from a remix of it, so keys sharing a shard do not
// share them. Both sizes are powers of two.
func (d *departures) probes(h1 uint64) (b1, b2 uint64, slot int) {
	h2 := h1 * 0x9e3779b97f4a7c15
	h2 ^= h2 >> 29
	bitMask := uint64(len(d.bits))*64 - 1
	return h1 & bitMask, h2 & bitMask, int(h2 >> 32 & uint64(len(d.slots)-1))
}

// publish records that the postings up to b of the key hashing to h
// left memory. The slot is raised before the filter bits are set, so a
// reader that sees the bits sees the slot.
func (d *departures) publish(h uint64, b Bound) {
	if b.Complete() {
		return
	}
	c := ceilingOf(b.Score)
	b1, b2, slot := d.probes(h)
	atomicMax(&d.slots[slot], uint64(c))
	atomicOr(&d.bits[b1/64], 1<<(b1%64))
	atomicOr(&d.bits[b2/64], 1<<(b2%64))
}

// lookup returns the ceiling a new entry for the key hashing to h
// starts from: zero when the filter says the key never departed, its
// slot otherwise.
func (d *departures) lookup(h uint64) ceiling {
	b1, b2, slot := d.probes(h)
	if d.bits[b1/64].Load()&(1<<(b1%64)) == 0 || d.bits[b2/64].Load()&(1<<(b2%64)) == 0 {
		return 0
	}
	return ceiling(d.slots[slot].Load())
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
