package engine

import (
	"errors"
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/query"
	"kflushing/internal/tuner"
	"kflushing/internal/types"
)

// newTunedEngine builds a deterministic (SyncFlush, logical-clock)
// keyword engine. With adaptive set, the tuner ticks at Interval 1 —
// every ingest batch is due — so workload shifts register immediately
// and the sims below replay identically.
func newTunedEngine(t testing.TB, budget, cacheBytes int64, adaptive bool) *Engine[string] {
	t.Helper()
	cfg := Config[string]{
		K:              5,
		MemoryBudget:   budget,
		FlushFraction:  0.1,
		DiskCacheBytes: cacheBytes,
		KeysOf:         attr.KeywordKeys,
		KeyHash:        attr.HashString,
		KeyLen:         attr.KeywordLen,
		EncodeKey:      attr.KeywordEncode,
		Clock:          clock.NewLogical(1, 1),
		DiskDir:        t.TempDir(),
		Policy:         core.New[string](),
		TrackOverK:     true,
		SyncFlush:      true,
	}
	if adaptive {
		cfg.AdaptiveMemory = true
		cfg.TunerLimits = tuner.Limits{Interval: 1}
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func ingestKeyed(t testing.TB, e *Engine[string], kws ...string) {
	t.Helper()
	if _, err := e.Ingest(&types.Microblog{Keywords: kws, Text: "tuner sim record body"}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
}

// TestTunerDisabledByDefault: without AdaptiveMemory the engine carries
// no controller and the static knobs are used verbatim.
func TestTunerDisabledByDefault(t *testing.T) {
	eng := newTunedEngine(t, 1<<20, 4096, false)
	if _, ok := eng.TunerState(); ok {
		t.Fatal("tuner reported on")
	}
	if st := eng.Stats(); st.TunerEnabled || st.Tuner.Ticks != 0 {
		t.Fatalf("stats report tuner activity: %+v", st.Tuner)
	}
	if wm := eng.watermarkBytes(); wm != 1<<20 {
		t.Fatalf("watermark %d, want the static budget", wm)
	}
	if f := eng.flushFraction(); f != 0.1 {
		t.Fatalf("flush fraction %v, want the static 0.1", f)
	}
}

// TestTunerFlashCrowdConverges is workload-shift sim 1: a flash crowd —
// sustained hot-keyword ingest driving constant flush cycles, zero
// queries. The controller must move toward the write side and stay
// there: B above the static 0.1, the cache give back toward its floor,
// no direction reversals.
func TestTunerFlashCrowdConverges(t *testing.T) {
	// 256 KiB cache: comfortably above the controller's 64 KiB floor,
	// so the write-side shrink has room to act.
	eng := newTunedEngine(t, 24<<10, 256<<10, true)
	for i := 0; i < 3000; i++ {
		ingestKeyed(t, eng, "flash", fmt.Sprintf("u%d", i))
	}
	st, ok := eng.TunerState()
	if !ok {
		t.Fatal("tuner off")
	}
	if st.Adjusts == 0 {
		t.Fatalf("flash crowd applied no adjustments: %+v", st)
	}
	if st.Direction != 1 {
		t.Fatalf("direction %d, want +1 (write-heavy)", st.Direction)
	}
	if st.FlushFraction <= 0.1 {
		t.Fatalf("B=%v did not rise above the static 0.1", st.FlushFraction)
	}
	if st.CacheBytes >= 256<<10 {
		t.Fatalf("cache %d did not shrink", st.CacheBytes)
	}
	if st.WatermarkBytes != 24<<10 {
		t.Fatalf("watermark %d left its max (the budget)", st.WatermarkBytes)
	}
	if st.SignFlips != 0 {
		t.Fatalf("one-sided workload produced %d sign flips", st.SignFlips)
	}
	// The retuned targets are what the hot paths now read.
	if eng.flushFraction() != st.FlushFraction {
		t.Fatalf("applied B %v != controller B %v", eng.flushFraction(), st.FlushFraction)
	}
	// The tier splits the budget across its shards, rounding down to a
	// per-shard multiple — within one shard-count of the target.
	if got := eng.tier.CacheBudgetBytes(); got > st.CacheBytes || st.CacheBytes-got >= 8 {
		t.Fatalf("tier cache budget %d != controller target %d", got, st.CacheBytes)
	}
}

// driveDiurnal runs the shared diurnal-drift script against one engine:
// a write morning (spread ingest, then full eviction to disk) followed
// by a read evening (cycling memory-miss queries over a hot key set,
// with an ingest trickle carrying the tick cadence). Returns the disk
// cache hit ratio over the read phase.
func driveDiurnal(t testing.TB, eng *Engine[string]) float64 {
	t.Helper()
	const hotKeys = 40
	// Morning: 200 keys, hot ones first, everything flushed out.
	for i := 0; i < 200; i++ {
		ingestKeyed(t, eng, fmt.Sprintf("k%d", i), "all")
		ingestKeyed(t, eng, fmt.Sprintf("k%d", i), "all")
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"k0"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryHit {
		t.Fatal("hot key still memory-resident; read phase would not miss")
	}
	h0, m0 := eng.tier.CacheCounters()

	// Evening: cycle the hot set; every 5th query an ingest trickle
	// gives the synchronous engine its tick.
	for round := 0; round < 60; round++ {
		for i := 0; i < hotKeys; i++ {
			if _, err := eng.Search(query.Request[string]{Keys: []string{fmt.Sprintf("k%d", i)}, K: 5}); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				ingestKeyed(t, eng, fmt.Sprintf("trickle-%d-%d", round, i))
			}
		}
	}
	h1, m1 := eng.tier.CacheCounters()
	hits, misses := h1-h0, m1-m0
	if hits+misses == 0 {
		t.Fatal("read phase generated no cache traffic")
	}
	return float64(hits) / float64(hits+misses)
}

// TestTunerDiurnalDriftBeatsStatic is workload-shift sim 2: the same
// deterministic diurnal script through a static engine and an adaptive
// twin. The adaptive run must recognize the read-heavy evening — grow
// the record cache out of the lowered watermark, drop B — and convert
// that into a strictly better cache hit ratio, with direction changes
// bounded by the two-tick confirmation.
func TestTunerDiurnalDriftBeatsStatic(t *testing.T) {
	const (
		budget     = 128 << 10
		cacheBytes = 4096 // deliberately starved: the static run thrashes
	)
	staticRatio := driveDiurnal(t, newTunedEngine(t, budget, cacheBytes, false))
	adaptive := newTunedEngine(t, budget, cacheBytes, true)
	adaptiveRatio := driveDiurnal(t, adaptive)

	st, ok := adaptive.TunerState()
	if !ok {
		t.Fatal("tuner off")
	}
	if st.Direction != -1 {
		t.Fatalf("direction %d after the read evening, want -1", st.Direction)
	}
	if st.CacheBytes <= cacheBytes {
		t.Fatalf("cache %d did not grow past the static %d", st.CacheBytes, cacheBytes)
	}
	if st.WatermarkBytes >= budget {
		t.Fatalf("watermark %d did not cede bytes to the cache", st.WatermarkBytes)
	}
	if st.FlushFraction >= 0.1 {
		t.Fatalf("B=%v did not fall below the static 0.1 under read pressure", st.FlushFraction)
	}
	if st.WatermarkBytes+st.CacheBytes > adaptive.tun.Envelope() {
		t.Fatalf("envelope exceeded: %d + %d > %d", st.WatermarkBytes, st.CacheBytes, adaptive.tun.Envelope())
	}
	// One genuine regime change (morning write, evening read) may cost
	// at most a couple of applied reversals.
	if st.SignFlips > 2 {
		t.Fatalf("%d sign flips across one regime change", st.SignFlips)
	}
	if adaptiveRatio <= staticRatio {
		t.Fatalf("adaptive hit ratio %.3f did not beat static %.3f", adaptiveRatio, staticRatio)
	}
	t.Logf("diurnal drift: static hit ratio %.3f, adaptive %.3f (cache %d -> %d bytes)",
		staticRatio, adaptiveRatio, cacheBytes, st.CacheBytes)
}

// TestTunerNeverAdjustsWhileGateHeld: the controller only applies
// decisions under the flush gate; while a flush cycle (simulated here
// by holding flushMu) owns it, a due tick is deferred, not taken.
func TestTunerNeverAdjustsWhileGateHeld(t *testing.T) {
	eng := newTunedEngine(t, 1<<20, 4096, true)
	if !eng.tun.Due(eng.clk.Now()) {
		t.Fatal("tick not due at interval 1")
	}
	before := eng.tun.State().Ticks
	eng.flushMu.Lock()
	eng.maybeTune()
	eng.maybeTune()
	held := eng.tun.State().Ticks
	eng.flushMu.Unlock()
	if held != before {
		t.Fatalf("ticks advanced %d -> %d while the gate was held", before, held)
	}
	eng.maybeTune()
	if after := eng.tun.State().Ticks; after != before+1 {
		t.Fatalf("deferred tick did not run after the gate freed: %d -> %d", before, after)
	}
}

// TestTunerFrozenWhileDegraded: a degraded (read-only) engine must not
// retune — no ticks are consumed — and leaving degraded mode resumes
// the controller.
func TestTunerFrozenWhileDegraded(t *testing.T) {
	eng := newTunedEngine(t, 1<<20, 4096, true)
	eng.maybeTune()
	base := eng.tun.State().Ticks
	if base == 0 {
		t.Fatal("controller never ticked before entering degraded mode")
	}

	eng.enterDegraded(errors.New("injected tier failure"), 0)
	for i := 0; i < 5; i++ {
		eng.maybeTune()
	}
	if got := eng.tun.State().Ticks; got != base {
		t.Fatalf("degraded engine ticked: %d -> %d", base, got)
	}

	eng.exitDegraded("test")
	eng.maybeTune()
	if got := eng.tun.State().Ticks; got != base+1 {
		t.Fatalf("controller did not resume after degraded cleared: %d -> %d", base, got)
	}
}
