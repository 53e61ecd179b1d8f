// Package attr binds the generic engine to the three concrete search
// attributes the paper evaluates (Section IV-A / V-D): keywords
// (hashtags), spatial grid tiles, and user IDs. Each binding supplies
// the key extractor, hash, size model, and disk encoding the generic
// index and disk tier need, bundled as a Spec.
package attr

import (
	"strconv"
	"strings"

	"kflushing/internal/spatial"
	"kflushing/internal/types"
)

// Spec is one search attribute: everything the layers above the generic
// engine need to know about a key type. The facade, the server's
// attribute table and the experiment harness all instantiate an engine
// from a Spec, so an attribute is described in exactly one place.
type Spec[K comparable] struct {
	// Name labels the attribute ("keyword", "spatial", "user") in the
	// server's directories, maps and metrics.
	Name string
	// KeysOf extracts the attribute's keys from a record; a record with
	// no keys is not indexed under the attribute.
	KeysOf func(*types.Microblog) []K
	// Hash spreads keys across index shards.
	Hash func(K) uint64
	// Len is the memory-model size of a key beyond the entry header.
	Len func(K) int
	// Encode is the key's disk-directory encoding.
	Encode func(K) string
	// Decode inverts Encode, reporting false for a string Encode never
	// produces. Opening over a disk tier decodes its directories' keys to
	// seed the index's per-key ceilings.
	Decode func(string) (K, bool)
}

// Keyword is the keyword (hashtag) attribute, the paper's primary
// evaluation target.
func Keyword() Spec[string] {
	return Spec[string]{Name: "keyword", KeysOf: KeywordKeys, Hash: HashString, Len: KeywordLen,
		Encode: KeywordEncode, Decode: KeywordDecode}
}

// Spatial is the spatial attribute over g's tiles (Section V-D).
func Spatial(g *spatial.Grid) Spec[spatial.Cell] {
	return Spec[spatial.Cell]{Name: "spatial", KeysOf: SpatialKeys(g), Hash: HashCell, Len: CellLen,
		Encode: CellEncode, Decode: CellDecode}
}

// User is the user-timeline attribute (Section V-D).
func User() Spec[uint64] {
	return Spec[uint64]{Name: "user", KeysOf: UserKeys, Hash: HashUint64, Len: UserLen,
		Encode: UserEncode, Decode: UserDecode}
}

// HashString hashes a string key for index sharding (FNV-1a).
// Deliberately deterministic across processes so experiment runs are
// reproducible for a given seed; shard selection is not an adversarial
// surface here.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashUint64 mixes an integer key (splitmix64 finalizer) so sequential
// IDs spread across shards.
func HashUint64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// KeywordKeys extracts a microblog's deduplicated keywords. Duplicated
// keywords within one record would otherwise double-count references.
func KeywordKeys(m *types.Microblog) []string {
	switch len(m.Keywords) {
	case 0:
		return nil
	case 1:
		return m.Keywords
	}
	out := make([]string, 0, len(m.Keywords))
	for _, kw := range m.Keywords {
		dup := false
		for _, seen := range out {
			if seen == kw {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, kw)
		}
	}
	return out
}

// KeywordLen is the memory-model size of a keyword key.
func KeywordLen(s string) int { return len(s) }

// KeywordEncode is the disk-directory encoding of a keyword key.
func KeywordEncode(s string) string { return s }

// KeywordDecode inverts KeywordEncode.
func KeywordDecode(s string) (string, bool) { return s, true }

// UserKeys extracts the user-timeline key of a microblog. User 0 means
// "no posting user": such a record carries no user key, so anonymous
// posts are not filed under a phantom user-0 timeline.
func UserKeys(m *types.Microblog) []uint64 {
	if m.UserID == 0 {
		return nil
	}
	return []uint64{m.UserID}
}

// UserLen is the memory-model size of a user key (fixed-size integer,
// already covered by the entry header).
func UserLen(uint64) int { return 0 }

// UserEncode is the disk-directory encoding of a user key.
func UserEncode(u uint64) string { return strconv.FormatUint(u, 10) }

// UserDecode inverts UserEncode.
func UserDecode(s string) (uint64, bool) {
	u, err := strconv.ParseUint(s, 10, 64)
	return u, err == nil
}

// SpatialKeys returns a key extractor mapping geotagged microblogs onto
// the given grid's tiles. Records without a location carry no spatial
// key.
func SpatialKeys(g *spatial.Grid) func(*types.Microblog) []spatial.Cell {
	return func(m *types.Microblog) []spatial.Cell {
		if !m.HasGeo {
			return nil
		}
		return []spatial.Cell{g.CellOf(m.Lat, m.Lon)}
	}
}

// HashCell hashes a grid tile for index sharding.
func HashCell(c spatial.Cell) uint64 {
	return HashUint64(uint64(uint32(c.Row))<<32 | uint64(uint32(c.Col)))
}

// CellLen is the memory-model size of a tile key (fixed-size).
func CellLen(spatial.Cell) int { return 0 }

// CellEncode is the disk-directory encoding of a tile key.
func CellEncode(c spatial.Cell) string {
	return strconv.Itoa(int(c.Row)) + "," + strconv.Itoa(int(c.Col))
}

// CellDecode inverts CellEncode.
func CellDecode(s string) (spatial.Cell, bool) {
	row, col, ok := strings.Cut(s, ",")
	r, err1 := strconv.ParseInt(row, 10, 32)
	c, err2 := strconv.ParseInt(col, 10, 32)
	return spatial.Cell{Row: int32(r), Col: int32(c)}, ok && err1 == nil && err2 == nil
}
