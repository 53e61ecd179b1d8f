package bench

import (
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/engine"
	"kflushing/internal/gen"
	"kflushing/internal/query"
)

// TestProbeBurstRetention is a diagnostic (run with -run ProbeBurst -v):
// it drives FIFO and kFlushing to steady state and then probes queries
// on burst tags of past epochs, printing per-age hit rates. It asserts
// the core mechanism: kFlushing answers queries about expired bursts
// that FIFO has evicted.
func TestProbeBurstRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic probe")
	}
	cfg := gen.DefaultConfig()
	results := map[string][]float64{}
	for _, pol := range []string{PolFIFO, PolKFlushing} {
		rc := RunConfig{Policy: pol, K: 20, Budget: 30 << 20, Stream: cfg, Seed: 1}.Defaults()
		dir, cleanup := tempDiskDir(rc)
		defer cleanup()
		eng, clk := newEngine(rc, attr.Keyword(), dir, true)
		defer eng.Close()

		g := gen.New(cfg)
		vocab := g.Vocab()
		const total = 260_000
		for i := 0; i < total; i++ {
			mb := g.Next()
			clk.Set(mb.Timestamp)
			if _, err := eng.Ingest(mb); err != nil && err != engine.ErrNoKeys {
				t.Fatal(err)
			}
			// Touch burst tags lightly so phase 3 sees query recency.
			if i%97 == 0 {
				base := g.BurstBase(int64(i))
				e := eng.Index().Entry(vocab[base])
				if e != nil {
					e.Touch(clk.Now())
				}
			}
		}
		// Probe: for epochs at increasing age, query the top burst tags.
		var hitsByAge []float64
		for _, age := range []int{1, 4, 8, 12, 16, 20} {
			seq := int64(total - age*cfg.EpochLen)
			base := g.BurstBase(seq)
			hits, asked := 0, 0
			for r := 0; r < 16; r++ { // top burst ranks accumulate >= k
				kw := vocab[(base+r)%cfg.Vocab]
				res, err := eng.Search(query.Request[string]{Keys: []string{kw}, Op: query.OpSingle, K: rc.K})
				if err != nil {
					t.Fatal(err)
				}
				asked++
				if res.MemoryHit {
					hits++
				}
			}
			hitsByAge = append(hitsByAge, float64(hits)/float64(asked))
		}
		results[pol] = hitsByAge
		st := eng.Stats()
		t.Logf("%s: kfilled=%d entries=%d flushes=%d", pol, st.Census.KFilled, st.Census.Entries, st.Metrics.Flushes)
	}
	for pol, series := range results {
		t.Logf("%-10s burst hit by age: %v", pol, fmtSeries(series))
	}
	// The headline mechanism: at old ages kFlushing must beat FIFO.
	old := len(results[PolFIFO]) - 1
	if results[PolKFlushing][old] <= results[PolFIFO][old] {
		t.Errorf("kflushing old-burst hit %.2f not above fifo %.2f",
			results[PolKFlushing][old], results[PolFIFO][old])
	}
}

func fmtSeries(s []float64) string {
	out := ""
	for _, v := range s {
		out += fmt.Sprintf(" %.2f", v)
	}
	return out
}
