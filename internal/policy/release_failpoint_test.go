//go:build failpoint

package policy

import (
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// TestReleaseChecksCounts breaks each count the release path checks and
// expects a fault-injection build to stop on it: a record released
// twice, one released while its entry still holds it, and one whose
// top-k counter went below zero.
func TestReleaseChecksCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, res *Resources[string], rec *store.Record, buf *VictimBuffer)
	}{
		{"released twice", func(t *testing.T, res *Resources[string], rec *store.Record, buf *VictimBuffer) {
			if freed, _ := res.Remove(res.Index.Entry("a"), 2, index.AllPostings, nil, buf); freed == 0 {
				t.Fatal("the first release freed nothing")
			}
		}},
		{"released while indexed", func(*testing.T, *Resources[string], *store.Record, *VictimBuffer) {}},
		{"top-k counter below zero", func(_ *testing.T, res *Resources[string], rec *store.Record, _ *VictimBuffer) {
			rec.Ref(1)
			rec.TopKRef(-2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := index.New(index.Config[string]{Hash: attr.HashString, KeyLen: attr.KeywordLen, K: 2, TrackTopK: true})
			res := &Resources[string]{Index: ix, Mem: &memsize.Tracker{}, KeysOf: attr.KeywordKeys}
			rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
			res.Mem.AddRecords(1, rec.Bytes())
			ix.Insert("a", rec)
			buf := NewVictimBuffer(res.Mem, false)
			tc.spoil(t, res, rec, buf)
			defer func() {
				if recover() == nil {
					t.Fatal("the release did not panic")
				}
			}()
			res.release(rec, buf)
		})
	}
}
