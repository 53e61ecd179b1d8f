//go:build failpoint

package engine

import (
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/failpoint"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// newFaultEngine builds a small keyword engine with the given retry
// policy, disarming every failpoint before and after the test.
func newFaultEngine(t *testing.T, retry disk.RetryPolicy) *Engine[string] {
	t.Helper()
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	eng, err := New(Config[string]{
		K:             3,
		MemoryBudget:  1 << 30,
		FlushFraction: 0.5,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		DiskRetry:     retry,
		Policy:        core.New[string](),
		TrackOverK:    true,
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func mustEnable(t *testing.T, site, spec string) {
	t.Helper()
	if err := failpoint.Enable(site, spec); err != nil {
		t.Fatalf("enable %s=%s: %v", site, spec, err)
	}
}

func searchIDs(t *testing.T, e *Engine[string], key string, k int) map[types.ID]bool {
	t.Helper()
	res, err := e.Search(query.Request[string]{Keys: []string{key}, K: k})
	if err != nil {
		t.Fatalf("search %q: %v", key, err)
	}
	ids := make(map[types.ID]bool, len(res.Items))
	for _, it := range res.Items {
		ids[it.MB.ID] = true
	}
	return ids
}

// TestEvictionRollbackSurvivesRestart checks the stronger durability
// half of atomic flush semantics: records rolled back after a failed
// flush are still covered by the WAL, so a close/reopen after the
// failure loses nothing.
func TestEvictionRollbackSurvivesRestart(t *testing.T) {
	failpoint.DisableAll()
	t.Cleanup(failpoint.DisableAll)
	dir := t.TempDir()
	open := func() *Engine[string] {
		eng, err := New(Config[string]{
			K:             3,
			MemoryBudget:  1 << 30,
			FlushFraction: 0.5,
			KeysOf:        attr.KeywordKeys,
			KeyHash:       attr.HashString,
			KeyLen:        attr.KeywordLen,
			EncodeKey:     attr.KeywordEncode,
			Clock:         clock.NewLogical(1, 1),
			DiskDir:       dir,
			WALDir:        dir + "/wal",
			Policy:        core.New[string](),
			TrackOverK:    true,
			SyncFlush:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := open()
	var want []types.ID
	for i := 0; i < 30; i++ {
		want = append(want, ingest(t, eng, int64(i+1), "all"))
	}
	mustEnable(t, failpoint.FlushAfterEvict, "error")
	if _, err := eng.FlushNow(); err == nil {
		t.Fatal("flush succeeded despite post-evict fault")
	}
	failpoint.Disable(failpoint.FlushAfterEvict)
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	eng = open()
	defer eng.Close()
	got := searchIDs(t, eng, "all", 100)
	for _, id := range want {
		if !got[id] {
			t.Fatalf("record %d lost across failed-flush restart", id)
		}
	}
}
