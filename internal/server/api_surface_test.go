package server

import (
	"net/http"
	"reflect"
	"sort"
	"testing"

	"kflushing"
)

// storeAPI spells out Store's public method set as it stood before the
// Store became an attribute table (PR 20); the file fails to compile if
// the table refactor drops or re-types one.
type storeAPI interface {
	Ingest(*kflushing.Microblog) (IngestResult, error)
	IngestBatch([]*kflushing.Microblog) ([]IngestResult, error)
	SearchKeywords(keywords []string, op kflushing.Op, k int) (kflushing.Result, error)
	SearchKeywordsTraced(keywords []string, op kflushing.Op, k int) (kflushing.Result, *kflushing.Trace, error)
	SearchNearby(lat, lon, radiusMiles float64, k int) (kflushing.Result, error)
	SearchNearbyTraced(lat, lon, radiusMiles float64, k int) (kflushing.Result, *kflushing.Trace, error)
	SearchUser(id uint64, k int) (kflushing.Result, error)
	SearchUserTraced(id uint64, k int) (kflushing.Result, *kflushing.Trace, error)
	BlackboxEvents() map[string][]kflushing.BlackboxEvent
	Ready() map[string]string
	DiskHealth() map[string]kflushing.DiskHealth
	SetK(k int)
	Stats() map[string]kflushing.Stats
	Close() error
	Handler() http.Handler
	HandlerWithOptions(HandlerOptions) http.Handler
}

var _ storeAPI = (*Store)(nil)

// TestAttributeTable pins what the table must not move: every
// per-attribute map has exactly the keys keyword, spatial, user; the
// table is in ingest order; and Ingest is IngestBatch for one record.
func TestAttributeTable(t *testing.T) {
	st := newTestStore(t)

	var order []string
	for _, a := range st.attrs {
		order = append(order, a.Attr())
	}
	if want := []string{"keyword", "spatial", "user"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("attribute table order = %v, want %v (the IngestBatch contract names it)", order, want)
	}

	keysOf := func(m any) []string {
		var keys []string
		for _, k := range reflect.ValueOf(m).MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		return keys
	}
	for name, m := range map[string]any{
		"BlackboxEvents": st.BlackboxEvents(),
		"DiskHealth":     st.DiskHealth(),
		"Stats":          st.Stats(),
	} {
		if got, want := keysOf(m), []string{"keyword", "spatial", "user"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys = %v, want %v", name, got, want)
		}
	}
	if failures := st.Ready(); len(failures) != 0 {
		t.Errorf("Ready on a healthy store = %v, want no entries", failures)
	}

	// Two stores fed the same records one by one and as one-record
	// batches hand out the same IDs under the same attributes.
	twin := newTestStore(t)
	for i, mb := range []kflushing.Microblog{
		{Keywords: []string{"go"}, UserID: 7, HasGeo: true, Lat: 40.7, Lon: -74.0, Text: "all three"},
		{Keywords: []string{"go", "go"}},
		{HasGeo: true, Lat: 35, Lon: -100},
		{UserID: 9},
		{Text: "film premiere tonight"},
	} {
		a, b := mb, mb
		one, err := st.Ingest(&a)
		if err != nil {
			t.Fatalf("record %d: Ingest: %v", i, err)
		}
		batch, err := twin.IngestBatch([]*kflushing.Microblog{&b})
		if err != nil {
			t.Fatalf("record %d: IngestBatch: %v", i, err)
		}
		if len(batch) != 1 || batch[0] != one {
			t.Errorf("record %d: Ingest = %+v, one-record IngestBatch = %+v", i, one, batch)
		}
	}
	for _, s := range []*Store{st, twin} {
		if _, err := s.Ingest(&kflushing.Microblog{}); err != ErrNotIndexed {
			t.Errorf("unindexable record: Ingest error = %v, want ErrNotIndexed", err)
		}
		if _, err := s.IngestBatch([]*kflushing.Microblog{{}}); err != ErrNotIndexed {
			t.Errorf("unindexable record: IngestBatch error = %v, want ErrNotIndexed", err)
		}
	}
}
