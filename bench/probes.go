package bench

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"kflushing"
	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/disk"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/metrics"
	"kflushing/internal/query"
	"kflushing/internal/server"
	"kflushing/internal/spatial"
	"kflushing/internal/store"
	"kflushing/internal/wal"
)

// Isolated probes replay the head of the workload's own inputs into one
// layer's exported functions, in a scratch directory, after the
// measured phase. They say what a layer costs alone; the end-to-end
// figures say what it costs in company.

// probeChunk bounds how many records a probe holds materialised.
const probeChunk = 4096

// eachChunk materialises records [0, n) a chunk at a time.
func eachChunk(in *Inputs, n int, fn func(first int, mbs []*kflushing.Microblog)) {
	mbs := make([]*kflushing.Microblog, 0, probeChunk)
	for first := 0; first < n; first += probeChunk {
		mbs = mbs[:0]
		for i := first; i < min(first+probeChunk, n); i++ {
			mb := in.Record(i)
			mb.ID = kflushing.ID(i + 1)
			mb.Timestamp = kflushing.Timestamp(i + 1)
			mbs = append(mbs, mb)
		}
		fn(first, mbs)
	}
}

// keywordQueries returns up to n keyword searches from the inputs.
func keywordQueries(in *Inputs, n int) []searchReq {
	var out []searchReq
	for i := 0; i < in.Queries() && len(out) < n; i++ {
		if q := in.Query(i); q.kind == kindKeywords {
			out = append(out, q)
		}
	}
	return out
}

// probeAttr times key extraction: keyword dedup and the grid lookup.
func probeAttr(in *Inputs, n int, set func(string, float64)) {
	grid := attr.SpatialKeys(spatial.DefaultGrid())
	var kw, sp time.Duration
	eachChunk(in, n, func(_ int, mbs []*kflushing.Microblog) {
		t0 := time.Now()
		for _, mb := range mbs {
			probeSink += len(attr.KeywordKeys(mb))
		}
		t1 := time.Now()
		for _, mb := range mbs {
			probeSink += len(grid(mb))
		}
		kw += t1.Sub(t0)
		sp += time.Since(t1)
	})
	set("attr.keyword_keys_ns_per_rec", ratio(float64(kw), float64(n)))
	set("spatial.cell_keys_ns_per_rec", ratio(float64(sp), float64(n)))
}

// probeSink keeps probe results alive.
var probeSink int

// probeIndexStore times the in-memory structures alone: posting insert,
// top-k read, and raw-store put and get. It returns the postings per
// record it saw.
func probeIndexStore(in *Inputs, n int, queries []searchReq, set func(string, float64)) float64 {
	ix := index.New(index.Config[string]{
		Hash: attr.HashString, KeyLen: attr.KeywordLen, K: topK, TrackOverK: true,
		Tracker: &memsize.Tracker{},
		Pool:    alloc.NewSlicePool[*store.Record](alloc.PolicyPooled),
	})
	st := store.New()
	var insert, put time.Duration
	postings := 0
	eachChunk(in, n, func(_ int, mbs []*kflushing.Microblog) {
		recs := make([]*store.Record, len(mbs))
		for i, mb := range mbs {
			recs[i] = store.NewRecord(mb, float64(mb.Timestamp))
		}
		t0 := time.Now()
		for _, r := range recs {
			st.Put(r)
		}
		t1 := time.Now()
		for _, r := range recs {
			for _, key := range attr.KeywordKeys(r.MB) {
				ix.Insert(key, r)
				postings++
			}
		}
		put += t1.Sub(t0)
		insert += time.Since(t1)
	})
	t0 := time.Now()
	for _, q := range queries {
		if e := ix.Entry(q.keys[0]); e != nil {
			probeSink += len(e.TopK(topK))
		}
	}
	topk := time.Since(t0)
	t0 = time.Now()
	for id := 1; id <= n; id++ {
		if st.Get(kflushing.ID(id)) != nil {
			probeSink++
		}
	}
	get := time.Since(t0)
	set("index.insert_ns_per_posting", ratio(float64(insert), float64(postings)))
	set("index.topk_ns", ratio(float64(topk), float64(len(queries))))
	set("store.put_ns", ratio(float64(put), float64(n)))
	set("store.get_ns", ratio(float64(get), float64(n)))
	return ratio(float64(postings), float64(n))
}

// probeWAL times the log alone: group-commit append in ingest-sized
// batches, one fsync, and a full replay.
func probeWAL(in *Inputs, n, batch int, dir string, set func(string, float64)) error {
	l, err := wal.Open(dir, wal.Options{PooledBuffers: true})
	if err != nil {
		return err
	}
	var appendT time.Duration
	var appendErr error
	eachChunk(in, n, func(_ int, mbs []*kflushing.Microblog) {
		frames := make([]disk.FlushRecord, len(mbs))
		for i, mb := range mbs {
			frames[i] = disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)}
		}
		t0 := time.Now()
		for i := 0; i < len(frames) && appendErr == nil; i += batch {
			appendErr = l.AppendBatch(frames[i:min(i+batch, len(frames))])
		}
		appendT += time.Since(t0)
	})
	if appendErr != nil {
		l.Close()
		return appendErr
	}
	t0 := time.Now()
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	syncT := time.Since(t0)
	meter := newWriteMeter(dir)
	meter.sample()
	size := meter.now.total()
	replayed := 0
	t0 = time.Now()
	err = l.Replay(func(disk.FlushRecord) error { replayed++; return nil })
	replayT := time.Since(t0)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	set("wal.append_us_per_rec", ratio(float64(appendT)/1e3, float64(n)))
	set("wal.bytes_per_rec", ratio(float64(size), float64(n)))
	set("wal.sync_ms", float64(syncT)/1e6)
	set("wal.replay_us_per_rec", ratio(float64(replayT)/1e3, float64(replayed)))
	return err
}

// probeDisk opens a crash copy of the workload's keyword tier with the
// disk package alone and times open, search with a cold and a warm
// record cache, and a full compaction.
func probeDisk(tierDir, scratch string, queries []searchReq, set func(string, float64)) error {
	if err := copyDir(tierDir, scratch, false); err != nil {
		return err
	}
	t0 := time.Now()
	tier, err := disk.Open(disk.Config[string]{
		Dir: scratch, KeysOf: attr.KeywordKeys, Encode: attr.KeywordEncode,
		Layout: disk.LayoutLeveled, MaxSegments: 48,
	})
	if err != nil {
		return err
	}
	defer tier.Close()
	set("disk.open_ms", float64(time.Since(t0))/1e6)
	pass := func() (float64, error) {
		t0 := time.Now()
		for _, q := range queries {
			items, err := tier.Search(q.keys[:1], query.OpSingle, topK)
			if err != nil {
				return 0, err
			}
			probeSink += len(items)
		}
		return ratio(float64(time.Since(t0))/1e3, float64(len(queries))), nil
	}
	cold, err := pass()
	if err != nil {
		return err
	}
	warm, err := pass()
	if err != nil {
		return err
	}
	set("disk.search_cold_us", cold)
	set("disk.search_warm_us", warm)
	t0 = time.Now()
	if err := tier.CompactAll(); err != nil {
		return err
	}
	set("disk.compact_all_s", time.Since(t0).Seconds())
	return nil
}

// probeServer measures what the HTTP layer adds: the same records and
// searches go through Store.Handler (JSON parse, fan-out, JSON encode)
// and straight into Store.IngestBatch / Store.SearchKeywords on a twin
// store; the difference is the server's. It also reports the handler's
// own parse-stage histogram, the loopback round trip, and the
// allocations per record of the whole in-process ingest path.
func probeServer(in *Inputs, n, batch int, queries []searchReq, dir string, set func(string, float64)) error {
	viaHTTP, err := server.OpenStore(filepath.Join(dir, "handler"), storeOptions(false))
	if err != nil {
		return err
	}
	defer viaHTTP.Close()
	direct, err := server.OpenStore(filepath.Join(dir, "direct"), storeOptions(false))
	if err != nil {
		return err
	}
	defer direct.Close()
	h := viaHTTP.Handler()

	var handlerT, directT time.Duration
	var body []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range splitBatches(0, n, batch) {
		body = in.encodeBody(body[:0], b)
		req := httptest.NewRequest(http.MethodPost, "/microblogs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		handlerT += time.Since(t0)
	}
	runtime.ReadMemStats(&ms1)
	set("alloc.mallocs_per_rec", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n)))
	var ingestErr error
	eachChunk(in, n, func(_ int, mbs []*kflushing.Microblog) {
		for i := 0; i < len(mbs) && ingestErr == nil; i += batch {
			part := mbs[i:min(i+batch, len(mbs))]
			for _, mb := range part {
				mb.ID, mb.Timestamp = 0, 0
			}
			t0 := time.Now()
			_, ingestErr = direct.IngestBatch(part)
			directT += time.Since(t0)
		}
	})
	if ingestErr != nil {
		return ingestErr
	}
	set("server.ingest_parse_us_per_rec", ratio(float64(handlerT-directT)/1e3, float64(n)))

	handlerT, directT = 0, 0
	for _, q := range queries {
		req := httptest.NewRequest(http.MethodGet, searchPath(q, topK, false), nil)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		handlerT += time.Since(t0)
		t0 = time.Now()
		if _, err := direct.SearchKeywords(q.keys, q.op, topK); err != nil {
			return err
		}
		directT += time.Since(t0)
	}
	set("server.search_encode_us", ratio(float64(handlerT-directT)/1e3, float64(len(queries))))
	set("server.query_stage_parse_us",
		float64(viaHTTP.Stats()["keyword"].Metrics.QueryStages[metrics.QStageParse].Mean)/1e3)

	srv := httptest.NewServer(h)
	defer srv.Close()
	set("server.healthz_rtt_us", healthzRTT(srv.Client(), srv.URL, 200))
	return nil
}
