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
//
// Every row moved when memsize.RecordHeader went from 160 to 144 B (the
// engine dropped its ID map, the record wrapper shrank to 48 B): the
// same budget holds about 5 % more records. With 160 restored the
// refactored engine reproduces the earlier rows exactly. Per row:
//   - census: each row's postings rose 4.2–4.8 % (keyword/kflushing
//     18035 → 18797, user/kflushing 16410 → 17115) and its entries with
//     them — the records the larger capacity keeps;
//   - flushed: within 1.3 % of before — the flush target B is a fraction
//     of the budget, which did not change;
//   - hit: the 800 measured queries start after the second flush, which
//     now comes later in the stream, so each row samples a different
//     window (one query is 0.125 points). keyword/fifo 0.3113 → 0.3337,
//     keyword/kflushing 0.3425 → 0.3412, keyword/kflushing-mk 0.3488 →
//     0.3137, keyword/lru 0.3150 → 0.3237, spatial/fifo 0.2500 → 0.2362,
//     spatial/kflushing 0.2313 → 0.2375, user/fifo 0.4363 → 0.4375,
//     user/kflushing unchanged at 0.4738.
//
// The policies' order on keyword and spatial is not a property of this
// scale: with RecordHeader at 136, 144, 152, 160 and 168 B the keyword
// leader is LRU, kFlushing, FIFO, kFlushing-MK and kFlushing, and
// spatial puts kFlushing ahead of FIFO at every value but 160
// (EXPERIMENTS.md, "Resident records at 48 B over the microblog").
func TestSeededRunsPinned(t *testing.T) {
	want := map[string]string{
		"keyword/fifo":         "hit=0.3337 flushes=2 flushed=1427448 census={Entries:8054 KFilled:226 Postings:22761 BeyondTopK:10213}",
		"keyword/kflushing":    "hit=0.3412 flushes=2 flushed=3337586 census={Entries:11508 KFilled:314 Postings:18797 BeyondTopK:608}",
		"keyword/kflushing-mk": "hit=0.3137 flushes=2 flushed=3271086 census={Entries:11459 KFilled:311 Postings:21708 BeyondTopK:3603}",
		"keyword/lru":          "hit=0.3237 flushes=2 flushed=1258476 census={Entries:8148 KFilled:235 Postings:23392 BeyondTopK:10507}",
		"spatial/fifo":         "hit=0.2362 flushes=2 flushed=1425198 census={Entries:8743 KFilled:224 Postings:17841 BeyondTopK:3732}",
		"spatial/kflushing":    "hit=0.2375 flushes=2 flushed=1798325 census={Entries:10255 KFilled:285 Postings:17616 BeyondTopK:306}",
		"user/fifo":            "hit=0.4375 flushes=2 flushed=1368649 census={Entries:6971 KFilled:179 Postings:18469 BeyondTopK:6531}",
		"user/kflushing":       "hit=0.4738 flushes=2 flushed=2859905 census={Entries:9155 KFilled:274 Postings:17115 BeyondTopK:372}",
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
