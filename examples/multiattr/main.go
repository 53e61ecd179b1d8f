// Multiattr: the full microblogs service in one process — a single
// stream indexed simultaneously under keywords, spatial tiles, and user
// timelines (the paper's three attributes), each with its own kFlushing
// policy, plus the HTTP API exercised over a test listener. The store is
// durable: the three attributes share one write-ahead log, kept in the
// keyword directory, so every microblog is logged once and carries one
// ID under every attribute that indexes it.
//
//	go run ./examples/multiattr
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"kflushing"
	"kflushing/internal/gen"
	"kflushing/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "kflushing-multiattr")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := server.OpenStore(dir, kflushing.Options{
		Policy:       kflushing.PolicyKFlushing,
		MemoryBudget: 8 << 20,
		SyncFlush:    true,
		Durable:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Feed a synthetic stream straight into the store.
	cfg := gen.DefaultConfig()
	cfg.GeoFraction = 1.0
	stream := gen.New(cfg)
	var probe *kflushing.Microblog
	for i := 0; i < 60_000; i++ {
		mb := stream.Next()
		if i == 55_000 {
			probe = mb
		}
		if _, err := store.Ingest(mb); err != nil {
			log.Fatal(err)
		}
	}

	// One microblog, one ID, under every attribute that indexes it.
	res, err := store.Ingest(&kflushing.Microblog{
		Keywords: []string{"demo"}, UserID: 7, HasGeo: true, Lat: 40.7, Lon: -74.0,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one post: keyword_id=%d spatial_id=%d user_id=%d\n", res.KeywordID, res.SpatialID, res.UserID)
	for _, attr := range []string{"keyword", "spatial", "user"} {
		logs, _ := filepath.Glob(filepath.Join(dir, attr, "wal-*.kfw"))
		fmt.Printf("%-8s log files: %d\n", attr, len(logs))
	}

	// Query each attribute natively.
	kw, _ := store.SearchKeywords(probe.Keywords[:1], kflushing.OpSingle, 3)
	fmt.Printf("keyword %q: %d results (memory hit: %v)\n",
		probe.Keywords[0], len(kw.Items), kw.MemoryHit)
	sp, _ := store.SearchNearby(probe.Lat, probe.Lon, 5 /* miles */, 3)
	fmt.Printf("nearby (%.2f,%.2f): %d results (memory hit: %v)\n",
		probe.Lat, probe.Lon, len(sp.Items), sp.MemoryHit)
	us, _ := store.SearchUser(probe.UserID, 3)
	fmt.Printf("user %d timeline: %d results (memory hit: %v)\n",
		probe.UserID, len(us.Items), us.MemoryHit)

	// And over HTTP.
	ts := httptest.NewServer(store.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/microblogs", "application/json",
		strings.NewReader(`{"keywords":["demo"],"text":"over http","user_id":99}`))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/search/keywords?q=demo&k=1")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Items []struct {
			Text string `json:"text"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTP search for \"demo\": %q\n", out.Items[0].Text)

	for attr, st := range store.Stats() {
		fmt.Printf("%-8s policy=%s records=%d k-filled=%d/%d flushes=%d\n",
			attr, st.Policy, st.StoreRecords, st.Census.KFilled,
			st.Census.Entries, st.Metrics.Flushes)
	}
}
