package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"kflushing"
)

// httpTarget drives a kflushd child over keep-alive connections: one
// for the ingest driver, one for the query driver.
type httpTarget struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	base   string
	client *http.Client
	in     *Inputs
	chk    *checker

	// Raw response bodies, verified after the phase so that JSON
	// decoding in the harness does not compete with the child for the
	// two cores while latencies are being taken. The ingest and query
	// drivers each append to their own arena.
	rawIngest []byte
	rawSearch []byte
	buf       [2]bytes.Buffer
}

// startKflushd launches bin on a free loopback port over dir and waits
// until /readyz answers 200, which includes crash recovery if dir holds
// a log.
func startKflushd(bin, dir string, in *Inputs) (target, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	t := &httpTarget{
		stderr: &bytes.Buffer{},
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		in:     in,
		chk:    newChecker(in),
	}
	t.cmd = exec.Command(bin, "-addr", addr, "-data", dir,
		"-budget", strconv.Itoa(memoryBudget>>20), "-durable", "-log-level", "error")
	t.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	t.cmd.Stderr = t.stderr
	start := time.Now()
	if err := t.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := start.Add(settleTimeout)
	for {
		resp, err := t.client.Get(t.base + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			drain(resp)
			if ok {
				return t, nil
			}
		}
		if time.Now().After(deadline) {
			t.stop()
			return nil, fmt.Errorf("kflushd not ready after %v: %s", settleTimeout, t.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// stop kills the child, as a crash would, and waits for it to end.
func (t *httpTarget) stop() {
	if t.cmd == nil || t.cmd.Process == nil {
		return
	}
	_ = t.cmd.Process.Kill()
	_ = t.cmd.Wait() // the kill is the expected cause of the error
	t.client.CloseIdleConnections()
}

func (t *httpTarget) close() error {
	t.stop()
	return nil
}

func (t *httpTarget) spanNames() (string, string) { return "driver.post", "driver.get" }

func (t *httpTarget) pid() int { return t.cmd.Process.Pid }

func (t *httpTarget) stage(batchRef) {} // bodies are pre-encoded

// do sends one request and appends the response body to arena.
func (t *httpTarget) do(req *http.Request, buf *bytes.Buffer, arena *[]byte) (end time.Time, raw [2]uint32, ok bool) {
	resp, err := t.client.Do(req)
	if err != nil {
		return time.Now(), raw, false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return end, raw, false
	}
	raw[0] = uint32(len(*arena))
	*arena = append(*arena, buf.Bytes()...)
	raw[1] = uint32(len(*arena))
	return end, raw, true
}

func (t *httpTarget) ingest(bi int, _ batchRef) (time.Time, ingestSample) {
	req, err := http.NewRequest(http.MethodPost, t.base+"/microblogs", bytes.NewReader(t.in.body(bi)))
	if err != nil {
		return time.Now(), ingestSample{viol: violError}
	}
	end, raw, ok := t.do(req, &t.buf[0], &t.rawIngest)
	s := ingestSample{raw: raw}
	if !ok {
		s.viol = violError
	}
	return end, s
}

// searchPath renders q as a kflushd request path.
func searchPath(q searchReq, k int, traced bool) string {
	var b strings.Builder
	switch q.kind {
	case kindNearby:
		b.WriteString("/search/nearby?lat=")
		b.WriteString(strconv.FormatFloat(q.lat, 'g', -1, 64))
		b.WriteString("&lon=")
		b.WriteString(strconv.FormatFloat(q.lon, 'g', -1, 64))
	case kindUser:
		b.WriteString("/search/user?id=")
		b.WriteString(strconv.FormatUint(q.user, 10))
	default:
		b.WriteString("/search/keywords?q=")
		b.WriteString(url.QueryEscape(strings.Join(q.keys, ",")))
		b.WriteString("&op=")
		b.WriteString(q.op.String())
	}
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(k))
	if traced {
		b.WriteString("&trace=1")
	}
	return b.String()
}

func (t *httpTarget) search(_ int, q searchReq, traced bool) (time.Time, searchSample) {
	req, err := http.NewRequest(http.MethodGet, t.base+searchPath(q, topK, traced), nil)
	if err != nil {
		return time.Now(), searchSample{viol: violError}
	}
	end, raw, ok := t.do(req, &t.buf[1], &t.rawSearch)
	s := searchSample{raw: raw}
	if !ok {
		s.viol = violError
	}
	return end, s
}

// searchResponse is kflushd's search reply.
type searchResponse struct {
	Items []struct {
		ID       uint64   `json:"id"`
		UserID   uint64   `json:"user_id"`
		Keywords []string `json:"keywords"`
		Lat      float64  `json:"lat"`
		Lon      float64  `json:"lon"`
		Score    float64  `json:"score"`
	} `json:"items"`
	MemoryHit bool             `json:"memory_hit"`
	Trace     *kflushing.Trace `json:"trace"`
}

func (r *searchResponse) answers() []Answer {
	out := make([]Answer, len(r.Items))
	for i, it := range r.Items {
		out[i] = Answer{ID: it.ID, Score: it.Score, UserID: it.UserID, Keywords: it.Keywords, Lat: it.Lat, Lon: it.Lon}
	}
	return out
}

// ingestResponse is kflushd's reply to POST /microblogs.
type ingestResponse struct {
	Ingested []struct {
		KeywordID uint64 `json:"keyword_id"`
		SpatialID uint64 `json:"spatial_id"`
		UserID    uint64 `json:"user_id"`
	} `json:"ingested"`
}

func (t *httpTarget) resolve(ing []ingestSample, srch []searchSample) {
	for i := range ing {
		s := &ing[i]
		if s.viol != "" {
			continue
		}
		var r ingestResponse
		if err := json.Unmarshal(t.rawIngest[s.raw[0]:s.raw[1]], &r); err != nil {
			s.viol = violUndecoded
			continue
		}
		// Every generated record carries keywords, a location and a
		// user, so all three attribute systems number it alike.
		ok := len(r.Ingested) == s.n
		for j := 0; ok && j < len(r.Ingested); j++ {
			want := uint64(s.first + j + 1)
			ok = r.Ingested[j].KeywordID == want && r.Ingested[j].SpatialID == want && r.Ingested[j].UserID == want
		}
		if !ok {
			s.viol = violBadID
		}
	}
	for i := range srch {
		s := &srch[i]
		if s.viol != "" {
			continue
		}
		var r searchResponse
		if err := json.Unmarshal(t.rawSearch[s.raw[0]:s.raw[1]], &r); err != nil {
			s.viol = violUndecoded
			continue
		}
		s.hit, s.trace = r.MemoryHit, r.Trace
		s.viol = t.chk.Check(t.in.Query(s.qi), topK, r.answers())
	}
	t.rawIngest, t.rawSearch = t.rawIngest[:0], t.rawSearch[:0]
}

func (t *httpTarget) lookup(key string, k int) ([]Answer, error) {
	q := searchReq{kind: kindKeywords, keys: []string{key}}
	var r searchResponse
	if err := t.getJSON(searchPath(q, k, false), &r); err != nil {
		return nil, err
	}
	return r.answers(), nil
}

func (t *httpTarget) getJSON(path string, v any) error {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (t *httpTarget) settle() error {
	return pollSettled(func() (bool, error) {
		var r struct {
			Disk map[string]kflushing.DiskHealth `json:"disk"`
		}
		if err := t.getJSON("/readyz", &r); err != nil {
			return false, err
		}
		for _, h := range r.Disk {
			if !idleHealth(h) {
				return false, nil
			}
		}
		return true, nil
	})
}

// gauges: kflushd's only source is /stats, which scans the index, so
// the child is read at phase boundaries only.
func (t *httpTarget) gauges() (int64, int, bool) { return 0, 0, false }

func (t *httpTarget) snapshot() (counters, error) {
	var stats map[string]kflushing.Stats
	if err := t.getJSON("/stats", &stats); err != nil {
		return counters{}, err
	}
	var c counters
	for _, attr := range []string{"keyword", "spatial", "user"} {
		c.stats = append(c.stats, stats[attr])
	}
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "kflushing_gc_cycles_total":
			c.gcCycles = int64(f)
		case "kflushing_gc_pause_seconds_total":
			c.gcPause = time.Duration(f * float64(time.Second))
		case "kflushing_heap_alloc_bytes":
			c.heapInuse = int64(f)
		}
	}
	return c, sc.Err()
}

// healthzRTT is the median round trip of GET /healthz: the floor every
// HTTP latency sits on.
func healthzRTT(client *http.Client, base string, n int) float64 {
	var lat []int64
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			continue
		}
		drain(resp)
		lat = append(lat, int64(time.Since(start)))
	}
	return usAt(ascending(lat), 0.5)
}
