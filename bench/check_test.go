package bench

import (
	"os"
	"path/filepath"
	"testing"

	"kflushing/internal/gen"
	"kflushing/internal/query"
)

func writeFile(dir, name string, n int) error {
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, make([]byte, n), 0o644)
}

func renameFile(dir, from, to string) error {
	return os.Rename(filepath.Join(dir, from), filepath.Join(dir, to))
}

func removeFile(dir, name string) error { return os.Remove(filepath.Join(dir, name)) }

func smallInputs(seed int64) *Inputs {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	return generate(inputPlan{cfg: cfg, setupRecords: 400, setupBatch: 16, records: 160, batch: 16, queries: 60, mix: mixHTTP, bodies: true})
}

// answerFor builds the answer item a correct store would return for
// record i.
func answerFor(in *Inputs, i int) Answer {
	mb := in.Record(i)
	return Answer{ID: uint64(i + 1), Score: float64(1000 + i), UserID: mb.UserID, Keywords: mb.Keywords, Lat: mb.Lat, Lon: mb.Lon}
}

func TestCheckerFlagsCorruptedAndMisorderedAnswers(t *testing.T) {
	in := smallInputs(1)
	chk := newChecker(in)
	// Two records and a key only the first one carries.
	a, b := answerFor(in, 10), answerFor(in, 20)
	key := a.Keywords[0]
	for _, kw := range b.Keywords {
		if kw == key {
			t.Skip("sampled records share the key; seed needs changing")
		}
	}
	q := searchReq{kind: kindKeywords, op: query.OpSingle, keys: []string{key}}

	if v := chk.Check(q, topK, []Answer{a}); v != "" {
		t.Fatalf("correct answer flagged %q", v)
	}
	// Corrupted: an item that does not contain the queried key.
	if v := chk.Check(q, topK, []Answer{b}); v != violWrongKey {
		t.Errorf("item without the key: got %q, want %q", v, violWrongKey)
	}
	// Mis-ordered: ascending instead of descending by (score, ID).
	b.Keywords = append([]string{key}, b.Keywords...)
	if v := (&checker{grid: chk.grid}).Check(q, topK, []Answer{a, b}); v != violOrder {
		t.Errorf("ascending scores: got %q, want %q", v, violOrder)
	}
	// A duplicate ID is not strictly ordered either.
	if v := chk.Check(q, topK, []Answer{a, a}); v != violOrder {
		t.Errorf("duplicate item: got %q, want %q", v, violOrder)
	}
	// The right key on the wrong record: content differs from what was
	// ingested under that ID (a recycled wrapper).
	forged := a
	forged.ID = 21
	if v := chk.Check(q, topK, []Answer{forged}); v != violContent {
		t.Errorf("forged ID: got %q, want %q", v, violContent)
	}
	if v := chk.Check(q, 1, []Answer{b, a}); v != violTooMany {
		t.Errorf("two items for k=1: got %q, want %q", v, violTooMany)
	}
	and := searchReq{kind: kindKeywords, op: query.OpAnd, keys: []string{key, "no-such-tag"}}
	if v := chk.Check(and, topK, []Answer{a}); v != violWrongKey {
		t.Errorf("AND with a missing key: got %q, want %q", v, violWrongKey)
	}
}

func TestOracleIsTheLastKRecordsOfAKey(t *testing.T) {
	in := smallInputs(2)
	keys := buildOracle(in, in.Records(), 20, 3, 7)
	if len(keys) == 0 {
		t.Fatal("no oracle keys sampled")
	}
	for _, ok := range keys {
		var want []uint64
		for i := in.Records() - 1; i >= 0 && len(want) < 3; i-- {
			in.eachKeyword(i, func(kw []byte) bool {
				if string(kw) == ok.key {
					want = append(want, uint64(i+1))
					return false
				}
				return true
			})
		}
		if len(want) != len(ok.want) {
			t.Fatalf("key %s: oracle %v, brute force %v", ok.key, ok.want, want)
		}
		for i := range want {
			if want[i] != ok.want[i] {
				t.Fatalf("key %s: oracle %v, brute force %v", ok.key, ok.want, want)
			}
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := smallInputs(5), smallInputs(5), smallInputs(6)
	if a.SHA != b.SHA {
		t.Errorf("same seed, different inputs: %s vs %s", a.SHA, b.SHA)
	}
	if a.SHA == c.SHA {
		t.Errorf("different seeds, same inputs: %s", a.SHA)
	}
	if a.Records() != 560 || a.Queries() != 60 {
		t.Errorf("generated %d records and %d queries, want 560 and 60", a.Records(), a.Queries())
	}
	if len(a.body(0)) == 0 || len(a.bodyOff)-1 != len(a.setup)+len(a.measured) {
		t.Errorf("expected one pre-encoded body per batch, got %d for %d batches", len(a.bodyOff)-1, len(a.setup)+len(a.measured))
	}
}
