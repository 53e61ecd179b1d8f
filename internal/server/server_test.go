package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kflushing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir(), kflushing.Options{
		MemoryBudget: 8 << 20,
		K:            5,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return st
}

func TestIngestFansOutToAttributes(t *testing.T) {
	st := newTestStore(t)
	res, err := st.Ingest(&kflushing.Microblog{
		Keywords: []string{"go"},
		UserID:   7,
		HasGeo:   true, Lat: 40.7, Lon: -74.0,
		Text: "everything",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeywordID == 0 || res.SpatialID == 0 || res.UserID == 0 {
		t.Fatalf("not all attributes indexed: %+v", res)
	}

	// Keyword-only record: no spatial or user indexing.
	res, err = st.Ingest(&kflushing.Microblog{Keywords: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpatialID != 0 || res.UserID != 0 {
		t.Fatalf("attribute leak: %+v", res)
	}

	// Unindexable record: no keywords, no extractable text, no geo, no
	// user.
	if _, err := st.Ingest(&kflushing.Microblog{}); err != ErrNotIndexed {
		t.Fatalf("want ErrNotIndexed, got %v", err)
	}
	// Text alone is indexable via keyword extraction.
	if _, err := st.Ingest(&kflushing.Microblog{Text: "film premiere tonight"}); err != nil {
		t.Fatalf("text-only record rejected: %v", err)
	}
}

func TestSearchAcrossAttributes(t *testing.T) {
	st := newTestStore(t)
	for i := 1; i <= 10; i++ {
		if _, err := st.Ingest(&kflushing.Microblog{
			Timestamp: kflushing.Timestamp(i),
			Keywords:  []string{"topic"},
			UserID:    3,
			HasGeo:    true, Lat: 35.0, Lon: -100.0,
			Text: "post",
		}); err != nil {
			t.Fatal(err)
		}
	}
	kw, err := st.SearchKeywords([]string{"topic"}, kflushing.OpSingle, 5)
	if err != nil || len(kw.Items) != 5 {
		t.Fatalf("keyword search: %d items, err=%v", len(kw.Items), err)
	}
	sp, err := st.SearchNearby(35.0, -100.0, 0, 5)
	if err != nil || len(sp.Items) != 5 {
		t.Fatalf("spatial search: %d items, err=%v", len(sp.Items), err)
	}
	us, err := st.SearchUser(3, 5)
	if err != nil || len(us.Items) != 5 {
		t.Fatalf("user search: %d items, err=%v", len(us.Items), err)
	}
}

func do(t *testing.T, h http.Handler, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, url, nil)
	} else {
		req = httptest.NewRequest(method, url, strings.NewReader(body))
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

func TestHTTPEndToEnd(t *testing.T) {
	st := newTestStore(t)
	h := st.Handler()

	rw := do(t, h, http.MethodPost, "/microblogs",
		`{"keywords":["go","db"],"text":"first","user_id":1,"lat":40.0,"lon":-74.0}
		 {"keywords":["go"],"text":"second","user_id":2}`)
	if rw.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rw.Code, rw.Body)
	}

	rw = do(t, h, http.MethodGet, "/search/keywords?q=go&k=5", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("keywords: %d %s", rw.Code, rw.Body)
	}
	var res struct {
		Items     []itemResp `json:"items"`
		MemoryHit bool       `json:"memory_hit"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 || res.Items[0].Text != "second" {
		t.Fatalf("keyword results: %+v", res.Items)
	}

	rw = do(t, h, http.MethodGet, "/search/keywords?q=go,db&op=and&k=5", "")
	if err := json.Unmarshal(rw.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Text != "first" {
		t.Fatalf("AND results: %+v", res.Items)
	}

	rw = do(t, h, http.MethodGet, "/search/nearby?lat=40.0&lon=-74.0&k=5", "")
	if err := json.Unmarshal(rw.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Lat == 0 {
		t.Fatalf("nearby results: %+v", res.Items)
	}

	rw = do(t, h, http.MethodGet, "/search/user?id=2&k=5", "")
	if err := json.Unmarshal(rw.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].UserID != 2 {
		t.Fatalf("user results: %+v", res.Items)
	}
}

func TestHTTPValidation(t *testing.T) {
	st := newTestStore(t)
	h := st.Handler()
	cases := []struct {
		method, url, body string
		want              int
	}{
		{http.MethodGet, "/microblogs", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/microblogs", "{bad", http.StatusBadRequest},
		{http.MethodPost, "/microblogs", `{}`, http.StatusUnprocessableEntity},
		{http.MethodGet, "/search/keywords", "", http.StatusBadRequest},
		{http.MethodGet, "/search/keywords?q=a&op=xor", "", http.StatusBadRequest},
		{http.MethodGet, "/search/keywords?q=a&k=0", "", http.StatusBadRequest},
		{http.MethodGet, "/search/nearby?lat=abc&lon=1", "", http.StatusBadRequest},
		{http.MethodGet, "/search/user?id=0", "", http.StatusBadRequest},
		{http.MethodGet, "/search/user?id=x", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		if rw := do(t, h, c.method, c.url, c.body); rw.Code != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.url, rw.Code, c.want)
		}
	}
}

func TestStatsAndMetrics(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Ingest(&kflushing.Microblog{Keywords: []string{"x"}, UserID: 1}); err != nil {
		t.Fatal(err)
	}
	h := st.Handler()

	rw := do(t, h, http.MethodGet, "/stats", "")
	var stats map[string]kflushing.Stats
	if err := json.Unmarshal(rw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"keyword", "spatial", "user"} {
		if _, ok := stats[attr]; !ok {
			t.Fatalf("stats missing attribute %q", attr)
		}
	}
	if stats["keyword"].StoreRecords != 1 || stats["user"].StoreRecords != 1 {
		t.Fatalf("unexpected record counts: kw=%d user=%d",
			stats["keyword"].StoreRecords, stats["user"].StoreRecords)
	}

	rw = do(t, h, http.MethodGet, "/metrics", "")
	body := rw.Body.String()
	for _, want := range []string{
		`kflushing_records{attr="keyword",policy="kflushing"} 1`,
		`kflushing_memory_budget_bytes{attr="user"`,
		"# TYPE kflushing_queries_total counter",
		`kflushing_query_hits_total{attr="keyword",policy="kflushing",reason="filled"}`,
		`kflushing_query_hits_total{attr="user",policy="kflushing",reason="complete"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if rw := do(t, h, http.MethodGet, "/healthz", ""); rw.Code != http.StatusOK {
		t.Error("healthz failed")
	}
}

func TestIngestExtractsKeywordsFromText(t *testing.T) {
	st := newTestStore(t)
	res, err := st.Ingest(&kflushing.Microblog{Text: "breaking #storm over the bay"})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeywordID == 0 {
		t.Fatal("text-only record not keyword-indexed")
	}
	hit, err := st.SearchKeywords([]string{"storm"}, kflushing.OpSingle, 1)
	if err != nil || len(hit.Items) != 1 {
		t.Fatalf("extracted hashtag not searchable: %d items, err=%v", len(hit.Items), err)
	}

	// No hashtags: significant terms are used.
	if _, err := st.Ingest(&kflushing.Microblog{Text: "volcano erupting tonight"}); err != nil {
		t.Fatal(err)
	}
	hit, err = st.SearchKeywords([]string{"volcano"}, kflushing.OpSingle, 1)
	if err != nil || len(hit.Items) != 1 {
		t.Fatalf("extracted term not searchable: %d items, err=%v", len(hit.Items), err)
	}
}

func TestHTTPRadiusSearch(t *testing.T) {
	st := newTestStore(t)
	// Two posts in nearby (but distinct) tiles.
	for i, lat := range []float64{40.00, 40.04} {
		if _, err := st.Ingest(&kflushing.Microblog{
			Timestamp: kflushing.Timestamp(i + 1),
			HasGeo:    true, Lat: lat, Lon: -90.0,
			Keywords: []string{"geo"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	h := st.Handler()
	rw := do(t, h, http.MethodGet, "/search/nearby?lat=40.0&lon=-90.0&radius=5&k=5", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("radius search: %d %s", rw.Code, rw.Body)
	}
	var res struct {
		Items []itemResp `json:"items"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("radius search found %d, want 2", len(res.Items))
	}
	if rw := do(t, h, http.MethodGet, "/search/nearby?lat=40.0&lon=-90.0&radius=-1", ""); rw.Code != http.StatusBadRequest {
		t.Fatalf("negative radius accepted: %d", rw.Code)
	}
}
