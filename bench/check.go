package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kflushing/internal/query"
	"kflushing/internal/spatial"
)

// Violation kinds the checker reports. Each violation is one failed
// operation; none of them stops the run.
const (
	violError     = "error"            // the call returned an error or a non-200 status
	violBadID     = "bad_id"           // ingest acked with a missing or out-of-sequence ID
	violTooMany   = "too_many"         // more than k items
	violOrder     = "misordered"       // items not strictly ordered by query.Less (covers duplicate IDs)
	violWrongKey  = "wrong_key"        // an item does not satisfy the query
	violContent   = "content_mismatch" // an item's content is not the record ingested under its ID
	violOracle    = "oracle_mismatch"  // answer at quiescence differs from the brute-force top-k
	violRecover   = "lost_after_crash" // an acked record is not searchable after recovery
	violUndecoded = "undecodable"      // an HTTP response body could not be parsed
)

// Answer is one returned item in the form both the in-process and the
// HTTP path can produce.
type Answer struct {
	ID       uint64
	Score    float64
	UserID   uint64
	Keywords []string
	Lat, Lon float64
}

// checker verifies search answers against the query and the generated
// stream. grid resolves nearby queries to the tile the store searched.
type checker struct {
	in   *Inputs
	grid *spatial.Grid
}

func newChecker(in *Inputs) *checker { return &checker{in: in, grid: spatial.DefaultGrid()} }

// less is query.Less over answers: descending by (score, ID).
func less(a, b Answer) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID > b.ID
}

// Check returns the first violation in the answer to q, or "".
func (c *checker) Check(q searchReq, k int, items []Answer) string {
	if len(items) > k {
		return violTooMany
	}
	for i := range items {
		if i > 0 && !less(items[i-1], items[i]) {
			return violOrder
		}
		if !satisfies(c.grid, q, &items[i]) {
			return violWrongKey
		}
		if c.in != nil && !c.matchesStream(&items[i]) {
			return violContent
		}
	}
	return ""
}

func satisfies(g *spatial.Grid, q searchReq, it *Answer) bool {
	switch q.kind {
	case kindNearby:
		return g.CellOf(it.Lat, it.Lon) == g.CellOf(q.lat, q.lon)
	case kindUser:
		return it.UserID == q.user
	}
	has := func(key string) bool {
		for _, kw := range it.Keywords {
			if kw == key {
				return true
			}
		}
		return false
	}
	if q.op == query.OpAnd {
		for _, key := range q.keys {
			if !has(key) {
				return false
			}
		}
		return true
	}
	for _, key := range q.keys {
		if has(key) {
			return true
		}
	}
	return false
}

// matchesStream reports whether the item is the record the harness
// ingested under that ID. One ingest driver feeds a fresh store, so ID n
// is the n-th generated record; an item that fails this is a recycled or
// corrupted record, whatever keys it happens to carry.
func (c *checker) matchesStream(it *Answer) bool {
	i := int(it.ID) - 1
	if i < 0 || i >= c.in.Records() {
		return false
	}
	if c.in.recUser(i) != it.UserID {
		return false
	}
	n, ok := 0, true
	c.in.eachKeyword(i, func(kw []byte) bool {
		ok = n < len(it.Keywords) && it.Keywords[n] == string(kw)
		n++
		return ok
	})
	return ok && n == len(it.Keywords)
}

// oracleKey is one sampled key with its brute-force answer: the IDs of
// the last k ingested records carrying it, newest first.
type oracleKey struct {
	key  string
	want []uint64
}

// buildOracle samples up to n distinct keywords from the first
// `ingested` records and recomputes their true top-k from the generated
// stream. Temporal ranking with one ingest driver makes arrival order
// the ranking order, so the true top-k of a key is its last k records.
func buildOracle(in *Inputs, ingested, n, k int, seed int64) []oracleKey {
	if ingested == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	byKey := make(map[string]*oracleKey, n)
	var keys []*oracleKey
	for tries := 0; len(keys) < n && tries < 20*n; tries++ {
		in.eachKeyword(rng.Intn(ingested), func(kw []byte) bool {
			if _, dup := byKey[string(kw)]; !dup {
				ok := &oracleKey{key: string(kw)}
				byKey[ok.key] = ok
				keys = append(keys, ok)
			}
			return false // first keyword only
		})
	}
	for i := 0; i < ingested; i++ {
		in.eachKeyword(i, func(kw []byte) bool {
			if ok := byKey[string(kw)]; ok != nil {
				// A record repeating a keyword is indexed under it once.
				if len(ok.want) == 0 || ok.want[len(ok.want)-1] != uint64(i+1) {
					ok.want = append(ok.want, uint64(i+1))
				}
			}
			return true
		})
	}
	out := make([]oracleKey, len(keys))
	for i, ok := range keys {
		if len(ok.want) > k {
			ok.want = ok.want[len(ok.want)-k:]
		}
		sort.Slice(ok.want, func(a, b int) bool { return ok.want[a] > ok.want[b] })
		out[i] = *ok
	}
	return out
}

// sameIDs reports whether the answer is exactly the wanted ID list.
func sameIDs(items []Answer, want []uint64) bool {
	if len(items) != len(want) {
		return false
	}
	for i := range items {
		if items[i].ID != want[i] {
			return false
		}
	}
	return true
}

// tally counts attempted and failed operations, failures by kind.
type tally struct {
	attempted int
	failed    int
	kinds     map[string]int
}

func (t *tally) attempt(n int) { t.attempted += n }

func (t *tally) fail(kind string) {
	if t.kinds == nil {
		t.kinds = map[string]int{}
	}
	t.failed++
	t.kinds[kind]++
}

// String lists failures by kind, e.g. "misordered=2 wrong_key=1".
func (t *tally) String() string {
	if t.failed == 0 {
		return "none"
	}
	var parts []string
	for k, n := range t.kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
