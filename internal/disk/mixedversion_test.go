package disk

import (
	"path/filepath"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

// writeV1Segment fabricates a genuine pre-Bloom (format v1) segment
// file, as a process running the previous release would have left it.
func writeV1Segment(t *testing.T, dir string, seq int, recs []FlushRecord) {
	t.Helper()
	sorted := append([]FlushRecord(nil), recs...)
	for i := 1; i < len(sorted); i++ { // insertion sort: tests use tiny inputs
		for j := i; j > 0 && sorted[j].Score > sorted[j-1].Score; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	d := make(map[string][]uint32)
	for ord, fr := range sorted {
		for _, kw := range fr.MB.Keywords {
			d[kw] = append(d[kw], uint32(ord))
		}
	}
	path := filepath.Join(dir, segmentFileName(seq))
	s, _, err := writeSegmentVersioned(path, sorted, d, segVersionV1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.release()
}

// segmentFileName mirrors the tier's naming scheme for fabricated files.
func segmentFileName(seq int) string {
	const digits = "0123456789"
	name := []byte("seg-00000000.kfs")
	for i := 11; seq > 0 && i >= 4; i-- {
		name[i] = digits[seq%10]
		seq /= 10
	}
	return string(name)
}

// TestMixedVersionTier runs the full compatibility story: a directory
// holding pre-Bloom v1 segments and current v2 segments must recover,
// answer searches correctly from both, and compact everything into
// Bloom-bearing v2 output.
func TestMixedVersionTier(t *testing.T) {
	dir := t.TempDir()
	// Two v1 segments from "the previous release".
	writeV1Segment(t, dir, 1, []FlushRecord{fr(1, 1, "old"), fr(2, 2, "both")})
	writeV1Segment(t, dir, 2, []FlushRecord{fr(3, 3, "old"), fr(4, 4, "both")})

	cfg := Config[string]{
		Dir:    dir,
		KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s },
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover mixed dir: %v", err)
	}
	defer tier.Close()
	if got := tier.Stats().Segments; got != 2 {
		t.Fatalf("recovered %d segments, want 2", got)
	}

	// A new flush writes a v2 segment alongside the v1 ones.
	if err := tier.Flush([]FlushRecord{fr(5, 5, "new", "both")}); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Version != 1 || infos[1].Version != 1 || infos[2].Version != 2 {
		t.Fatalf("segment versions: %+v", infos)
	}
	if infos[2].BloomBytes == 0 {
		t.Fatal("v2 segment has no Bloom block")
	}

	// Searches span both formats.
	items, err := tier.Search([]string{"both"}, query.OpSingle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("mixed search found %d of 3 records", len(items))
	}
	wantIDs := []types.ID{5, 4, 2}
	for i, it := range items {
		if it.MB.ID != wantIDs[i] {
			t.Fatalf("item %d ID = %d, want %d", i, it.MB.ID, wantIDs[i])
		}
	}
	// v1 segments take the directory path (no bloom skips possible),
	// v2 consults its filter.
	st := tier.Stats()
	if st.DirProbes == 0 {
		t.Fatal("v1 segments produced no directory probes")
	}
	if st.BloomProbes == 0 {
		t.Fatal("v2 segment's Bloom filter was never consulted")
	}

	// Compaction merges mixed-version inputs into v2 output.
	if err := tier.CompactAll(); err != nil {
		t.Fatal(err)
	}
	infos, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("after compaction: %d segments, want 1", len(infos))
	}
	if infos[0].Version != 2 || infos[0].BloomBytes == 0 {
		t.Fatalf("compacted segment not upgraded to v2 with Bloom: %+v", infos[0])
	}
	items, err = tier.Search([]string{"both"}, query.OpSingle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("post-compaction search found %d of 3 records", len(items))
	}

	// The upgraded directory still recovers.
	tier.Close()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	items, err = re.Search([]string{"old"}, query.OpSingle, 10)
	if err != nil || len(items) != 2 {
		t.Fatalf("reopened search: %d items, err=%v", len(items), err)
	}
}
