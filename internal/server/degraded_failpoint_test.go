//go:build failpoint

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"kflushing"
	"kflushing/internal/failpoint"
)

// TestDegradedModeEndToEnd drives the whole degraded-mode story over the
// HTTP API: a persistent segment-write fault makes a budget flush fail,
// after which ingestion answers a typed 503 while searches keep
// answering, /readyz turns 503 with the keyword attribute's reason, and
// /metrics exposes the degraded gauge. Clearing the fault lets the next
// /readyz probe restore write service with no restart.
func TestDegradedModeEndToEnd(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	st, err := OpenStore(t.TempDir(), kflushing.Options{
		MemoryBudget: 24 << 10,
		K:            2,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		failpoint.DisableAll() // Close flushes; let it succeed
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	h := st.Handler()

	post := func(i int) *int {
		body := fmt.Sprintf(`{"keywords":["all","w%d"],"text":%q}`,
			i%8, strings.Repeat("x", 150))
		rw := do(t, h, http.MethodPost, "/microblogs", body)
		return &rw.Code
	}

	// Seed healthy traffic, then arm a persistent segment-write fault:
	// the next budget flush fails, the eviction is rolled back, and the
	// keyword system enters degraded read-only mode.
	for i := 0; i < 20; i++ {
		if code := *post(i); code != http.StatusOK {
			t.Fatalf("healthy ingest %d answered %d", i, code)
		}
	}
	if err := failpoint.Enable(failpoint.DiskSegmentWrite, "error"); err != nil {
		t.Fatal(err)
	}
	degradedAt := -1
	for i := 20; i < 2000; i++ {
		code := *post(i)
		if code == http.StatusServiceUnavailable {
			degradedAt = i
			break
		}
		if code != http.StatusOK {
			t.Fatalf("ingest %d answered %d, want 200 or 503", i, code)
		}
	}
	if degradedAt < 0 {
		t.Fatal("no ingest was rejected: flush never failed into degraded mode")
	}

	// The 503 carries the typed degraded body.
	rw := do(t, h, http.MethodPost, "/microblogs", `{"keywords":["all"],"text":"x"}`)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest answered %d, want 503", rw.Code)
	}
	var rej struct {
		Error    string `json:"error"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rej); err != nil || !rej.Degraded || rej.Error == "" {
		t.Fatalf("degraded 503 body %q (err %v), want degraded=true with a reason", rw.Body.String(), err)
	}

	// Searches keep answering — including the records whose eviction was
	// rolled back when the flush failed.
	rw = do(t, h, http.MethodGet, "/search/keywords?q=all&k=500", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("search during degraded mode answered %d", rw.Code)
	}
	var sr struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &sr); err != nil || len(sr.Items) == 0 {
		t.Fatalf("search during degraded mode returned %d items (err %v)", len(sr.Items), err)
	}

	// /readyz is 503 and names the keyword attribute with the degraded
	// reason.
	rw = do(t, h, http.MethodGet, "/readyz", "")
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz answered %d during degraded mode, want 503", rw.Code)
	}
	var ready struct {
		Ready   bool              `json:"ready"`
		Reasons map[string]string `json:"reasons"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !strings.Contains(ready.Reasons["keyword"], "degraded") {
		t.Fatalf("/readyz body %+v, want keyword degraded reason", ready)
	}

	// /metrics exposes the gauge.
	rw = do(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(rw.Body.String(), `kflushing_degraded{attr="keyword",policy="kflushing"} 1`) {
		t.Fatal("degraded gauge not 1 for the keyword attribute in /metrics")
	}

	// Fault clears: the next readiness probe is the recovery evidence —
	// /readyz flips healthy and ingestion resumes, no restart needed.
	failpoint.Disable(failpoint.DiskSegmentWrite)
	rw = do(t, h, http.MethodGet, "/readyz", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("/readyz answered %d after fault cleared, want 200: %s", rw.Code, rw.Body.String())
	}
	if code := *post(9999); code != http.StatusOK {
		t.Fatalf("ingest after recovery answered %d", code)
	}
	rw = do(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(rw.Body.String(), `kflushing_degraded{attr="keyword",policy="kflushing"} 0`) {
		t.Fatal("degraded gauge did not return to 0 after recovery")
	}
}

// TestIngestBatchAllOrNothing pins Store.IngestBatch's all-or-nothing
// contract: an attribute that cannot take records refuses the whole
// batch before anything is logged, so no attribute ingests it. Only the
// spatial system is driven into degraded mode (geo-only posts under a
// segment-write fault); then one post carrying all three attributes must
// answer 503 naming the refusing attribute, and be found by none of the
// three searches. Once a readiness probe clears degraded mode, the same
// post is ingested once, under one ID, by all three.
func TestIngestBatchAllOrNothing(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	st, err := OpenStore(t.TempDir(), kflushing.Options{
		MemoryBudget: 24 << 10,
		K:            2,
		SyncFlush:    true,
		Durable:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		failpoint.DisableAll()
		if err := st.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	h := st.Handler()

	if err := failpoint.Enable(failpoint.DiskSegmentDirWrite, "error"); err != nil {
		t.Fatal(err)
	}
	degraded := false
	for i := 0; i < 5000 && !degraded; i++ {
		rw := do(t, h, http.MethodPost, "/microblogs", fmt.Sprintf(`{"lat":%g,"lon":-74.0}`, 30+float64(i%900)/100))
		switch rw.Code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			degraded = true
		default:
			t.Fatalf("geo-only ingest %d answered %d: %s", i, rw.Code, rw.Body.String())
		}
	}
	if !degraded {
		t.Fatal("spatial system never entered degraded mode")
	}
	// The fault is gone; the spatial system stays read-only until a
	// readiness probe, the keyword and user systems never noticed.
	failpoint.Disable(failpoint.DiskSegmentDirWrite)

	const post = `{"keywords":["allornothing"],"text":"x","user_id":4242,"lat":40.0,"lon":-74.0}`
	rw := do(t, h, http.MethodPost, "/microblogs", post)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("three-attribute post answered %d, want 503: %s", rw.Code, rw.Body.String())
	}
	var rej struct {
		Error    string `json:"error"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rej); err != nil || !rej.Degraded {
		t.Fatalf("503 body %q (err %v), want degraded=true", rw.Body.String(), err)
	}
	if !strings.Contains(rej.Error, "spatial attribute refused the batch, which no attribute ingested") {
		t.Fatalf("503 error %q does not name the refusing attribute", rej.Error)
	}

	count := func(url string) int {
		t.Helper()
		rw := do(t, h, http.MethodGet, url, "")
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s answered %d", url, rw.Code)
		}
		var sr struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		return len(sr.Items)
	}
	searches := []string{"/search/keywords?q=allornothing&k=5", "/search/user?id=4242&k=5"}
	for _, url := range searches {
		if n := count(url); n != 0 {
			t.Fatalf("%s finds the refused post %d times, want 0", url, n)
		}
	}

	if rw := do(t, h, http.MethodGet, "/readyz", ""); rw.Code != http.StatusOK {
		t.Fatalf("/readyz answered %d after the fault cleared: %s", rw.Code, rw.Body.String())
	}
	rw = do(t, h, http.MethodPost, "/microblogs", post)
	if rw.Code != http.StatusOK {
		t.Fatalf("retried post answered %d: %s", rw.Code, rw.Body.String())
	}
	var ok struct {
		Ingested []IngestResult `json:"ingested"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &ok); err != nil || len(ok.Ingested) != 1 {
		t.Fatalf("retried post body %q (err %v)", rw.Body.String(), err)
	}
	if r := ok.Ingested[0]; r.KeywordID == 0 || r.KeywordID != r.SpatialID || r.KeywordID != r.UserID {
		t.Fatalf("retried post got IDs %+v, want one ID under all three attributes", r)
	}
	for _, url := range searches {
		if n := count(url); n != 1 {
			t.Fatalf("%s finds the retried post %d times, want 1", url, n)
		}
	}
}
