package bench

import (
	"fmt"
	"testing"
)

// TestSeededRunsPinned pins what a fixed-seed run measures on each
// attribute: the runners are one generic function instantiated three
// times, and a refactor of the layers between RunConfig and the engine
// must not move a single counter. The figures were recorded at PR 20
// (EXPERIMENTS.md "PR 21") and do not depend on GOMAXPROCS.
//
// The hit ratio counts filled hits only. Two rows moved when memory hits
// became provably exact (DESIGN.md "Exact memory hits"): kflushing-mk
// 0.3550 → 0.3488 and lru 0.3175 → 0.3150. Those two policies break the
// suffix property by design, and of the old-rule hits the run lost, 11
// had answered wrong from memory (10 AND under MK, 1 single under LRU)
// and 3 were right but not provable (AND); every other row is unchanged.
func TestSeededRunsPinned(t *testing.T) {
	want := map[string]string{
		"keyword/fifo":         "hit=0.3113 flushes=2 flushed=1420229 census={Entries:7737 KFilled:210 Postings:21777 BeyondTopK:9823}",
		"keyword/kflushing":    "hit=0.3425 flushes=2 flushed=3333019 census={Entries:11068 KFilled:300 Postings:18035 BeyondTopK:568}",
		"keyword/kflushing-mk": "hit=0.3488 flushes=2 flushed=3273964 census={Entries:11033 KFilled:296 Postings:20826 BeyondTopK:3415}",
		"keyword/lru":          "hit=0.3150 flushes=2 flushed=1258522 census={Entries:7830 KFilled:220 Postings:22383 BeyondTopK:10118}",
		"spatial/fifo":         "hit=0.2500 flushes=2 flushed=1418733 census={Entries:8414 KFilled:213 Postings:17027 BeyondTopK:3495}",
		"spatial/kflushing":    "hit=0.2313 flushes=2 flushed=1780921 census={Entries:9849 KFilled:276 Postings:16847 BeyondTopK:262}",
		"user/fifo":            "hit=0.4363 flushes=2 flushed=1363724 census={Entries:6741 KFilled:172 Postings:17623 BeyondTopK:6157}",
		"user/kflushing":       "hit=0.4738 flushes=2 flushed=2823922 census={Entries:8810 KFilled:259 Postings:16410 BeyondTopK:378}",
	}
	runners := map[string]func(RunConfig) RunResult{
		"keyword": RunKeyword, "spatial": RunSpatial, "user": RunUser,
	}
	for _, attrName := range []string{"keyword", "spatial", "user"} {
		for _, pol := range AllPolicies {
			name := attrName + "/" + pol
			w, ok := want[name]
			if !ok {
				continue
			}
			rc := quickScale().baseRun()
			rc.Policy = pol
			rc.K = 10
			rc.Correlated = true
			res := runners[attrName](rc)
			got := fmt.Sprintf("hit=%.4f flushes=%d flushed=%d census=%+v",
				res.HitRatio, res.Flushes, res.FlushedBytes, res.Census)
			t.Logf("%-22s %s", name, got)
			if got != w {
				t.Errorf("%s moved:\n got %s\nwant %s", name, got, w)
			}
		}
	}
}
