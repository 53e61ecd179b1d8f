package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kflushing/internal/query"
	"kflushing/internal/types"
)

func TestManifestRoundTrip(t *testing.T) {
	cases := []Manifest{
		{},
		{NextSeq: 1},
		{NextSeq: 42, MaxRecordID: 1 << 40, Live: []ManifestEntry{{Name: "seg-00000001.kfs", Level: 0}}},
		{
			NextSeq:     99,
			MaxRecordID: 12345,
			Live: []ManifestEntry{
				{Name: "seg-00000007.kfs", Level: 0},
				{Name: "lvl-00000005.kfs", Level: 1},
				{Name: "lvl-00000003.kfs", Level: 2},
			},
			Retired: []string{"seg-00000001.kfs", "seg-00000002.kfs"},
		},
	}
	for i, m := range cases {
		b := encodeManifest(nil, m)
		got, err := decodeManifest(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeManifest(got), normalizeManifest(m)) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, m)
		}
	}
}

func normalizeManifest(m Manifest) Manifest {
	if len(m.Live) == 0 {
		m.Live = nil
	}
	if len(m.Retired) == 0 {
		m.Retired = nil
	}
	return m
}

// TestManifestV2Compat: a version-2 manifest is ErrNeedsUpgrade, not
// corrupt, and retired before the previous round: the upgrade refuses it,
// naming the commit that converts it, and leaves it as it is; a
// version-3 manifest carries its drained list through.
func TestManifestV2Compat(t *testing.T) {
	m := Manifest{
		NextSeq:     9,
		MaxRecordID: 77,
		Live:        []ManifestEntry{{Name: "seg-00000007.kfs", Level: 0}},
		Retired:     []string{"seg-00000001.kfs"},
	}
	if _, err := DecodeManifest(encodeManifestV2(m)); !errors.Is(err, ErrNeedsUpgrade) || errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("v2 decode: %v, want ErrNeedsUpgrade", err)
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, manifestName), encodeManifestV2(m))
	if err := Upgrade(dir); !errors.Is(err, ErrNeedsUpgrade) || !strings.Contains(err.Error(), olderUpgrade) {
		t.Fatalf("upgrade = %v, want ErrNeedsUpgrade naming commit %s", err, olderUpgrade)
	}
	if b, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(b, encodeManifestV2(m)) {
		t.Fatalf("the refused upgrade changed the manifest: %v", err)
	}
	m.Drained = []string{LogName(3), LogName(4)}
	if got, err := DecodeManifest(encodeManifest(nil, m)); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("v3 decode = %+v, %v; want %+v", got, err, m)
	}
}

// TestManifestV1Compat: a manifest of an older version — 1, without the
// record-ID mark, or 2, without the drained list — is not corrupt: it is
// ErrNeedsUpgrade, and Open and Upgrade refuse the directory rather than
// adopt around it, leaving every file as it is. Put back, the current
// manifest opens the directory with every record and the mark.
func TestManifestV1Compat(t *testing.T) {
	dir, intact, records := buildLeveledDir(t)
	live, err := DecodeManifest(intact)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config[string]{Dir: dir, KeysOf: func(m *types.Microblog) []string { return m.Keywords },
		Encode: func(s string) string { return s }}
	for v, encode := range map[int]func(Manifest) []byte{1: encodeManifestV1, 2: encodeManifestV2} {
		old := encode(live)
		if _, err := DecodeManifest(old); !errors.Is(err, ErrNeedsUpgrade) || errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("v%d decode: %v, want ErrNeedsUpgrade", v, err)
		}
		writeFile(t, filepath.Join(dir, manifestName), old)
		before := dirFiles(t, dir, "*")
		if _, err := Open(cfg); !errors.Is(err, ErrNeedsUpgrade) {
			t.Fatalf("v%d: Open = %v, want ErrNeedsUpgrade", v, err)
		}
		if err := Upgrade(dir); !errors.Is(err, ErrNeedsUpgrade) {
			t.Fatalf("v%d: Upgrade = %v, want ErrNeedsUpgrade", v, err)
		}
		if after := dirFiles(t, dir, "*"); !reflect.DeepEqual(after, before) {
			t.Fatalf("v%d: a refusal changed the directory:\n%v\nwas\n%v", v, after, before)
		}
		writeFile(t, filepath.Join(dir, manifestName), intact)
		tier := leveledTier(t, dir, 2)
		items, err := tier.Search([]string{"k"}, query.OpSingle, records+5)
		if tier.MaxRecordID() != uint64(records) || err != nil || len(items) != records {
			t.Fatalf("v%d: MaxRecordID %d, %d of %d records answered, err=%v", v, tier.MaxRecordID(), len(items), records, err)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if intact, err = os.ReadFile(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		if live, err = DecodeManifest(intact); err != nil {
			t.Fatal(err)
		}
	}
}

// buildLeveledDir creates a leveled directory with enough flushes that
// the manifest names segments on at least two levels, and returns the
// directory, the intact manifest bytes, and the record count.
func buildLeveledDir(t *testing.T) (dir string, intact []byte, records int) {
	t.Helper()
	dir = t.TempDir()
	tier := leveledTier(t, dir, 2)
	id := uint64(0)
	for batch := 0; batch < 7; batch++ {
		var recs []FlushRecord
		for i := 0; i < 3; i++ {
			id++
			recs = append(recs, fr(id, float64(id), "k"))
		}
		if err := tier.Flush(recs); err != nil {
			t.Fatal(err)
		}
	}
	levels := tier.Levels()
	deep := 0
	for _, lv := range levels {
		if lv.Level > 0 && lv.Segments > 0 {
			deep += lv.Segments
		}
	}
	if deep == 0 {
		t.Fatal("workload produced no deep levels; torn-manifest matrix would be trivial")
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(filepath.Join(dir, "manifest.kfm"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, intact, int(id)
}

// TestManifestTornTailMatrix mirrors the WAL torn-tail battery for the
// manifest: for EVERY byte offset it builds (a) a truncation at that
// offset and (b) a single-bit flip at that offset, then proves the
// decoder rejects the damage (or, for hypothetical collisions, decodes
// the identical manifest) and that a leveled Open of the damaged
// directory falls back to adoption and still answers every record.
func TestManifestTornTailMatrix(t *testing.T) {
	dir, intact, records := buildLeveledDir(t)
	want, err := decodeManifest(intact)
	if err != nil {
		t.Fatal(err)
	}

	checkDecode := func(t *testing.T, mutated []byte, label string) {
		got, err := DecodeManifest(mutated)
		if err == nil && !reflect.DeepEqual(normalizeManifest(got), normalizeManifest(want)) {
			t.Fatalf("%s: damaged manifest decoded to a DIFFERENT manifest: %+v", label, got)
		}
	}
	// Opening with a damaged manifest must never lose records: either
	// the decode survives identically or adoption recovers everything.
	checkOpen := func(t *testing.T, mutated []byte, label string) {
		if err := os.WriteFile(filepath.Join(dir, "manifest.kfm"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		tier := leveledTier(t, dir, 2)
		items, err := tier.Search([]string{"k"}, query.OpSingle, records)
		if err != nil {
			t.Fatalf("%s: search after damaged-manifest open: %v", label, err)
		}
		if len(items) != records {
			t.Fatalf("%s: damaged-manifest open answers %d of %d records", label, len(items), records)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut < len(intact); cut++ {
			checkDecode(t, intact[:cut], fmt.Sprintf("cut@%d", cut))
		}
		// The Open fallback is exercised at every frame boundary plus a
		// sweep inside the entry area (every open does real segment I/O,
		// so the full byte matrix runs decode-only above).
		for _, cut := range []int{0, 1, 4, 8, 16, len(intact) / 2, len(intact) - 8, len(intact) - 4, len(intact) - 1} {
			checkOpen(t, intact[:cut], fmt.Sprintf("open-cut@%d", cut))
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		for off := 0; off < len(intact); off++ {
			mutated := append([]byte(nil), intact...)
			mutated[off] ^= 1 << (uint(off) % 8)
			checkDecode(t, mutated, fmt.Sprintf("flip@%d", off))
		}
		for _, off := range []int{0, 5, 9, len(intact) / 2, len(intact) - 6, len(intact) - 2} {
			mutated := append([]byte(nil), intact...)
			mutated[off] ^= 1 << (uint(off) % 8)
			checkOpen(t, mutated, fmt.Sprintf("open-flip@%d", off))
		}
	})

	// Restore the intact manifest and verify one final full recovery.
	if err := os.WriteFile(filepath.Join(dir, "manifest.kfm"), intact, 0o644); err != nil {
		t.Fatal(err)
	}
	tier := leveledTier(t, dir, 2)
	items, err := tier.Search([]string{"k"}, query.OpSingle, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != records {
		t.Fatalf("intact manifest answers %d of %d", len(items), records)
	}
}

// FuzzManifestDecode feeds arbitrary bytes to the manifest decoder: it
// must never panic, and any input it accepts must re-encode and decode
// to the same manifest (a canonical-form round trip).
func FuzzManifestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("KFMF"))
	f.Add(encodeManifest(nil, Manifest{}))
	f.Add(encodeManifest(nil, Manifest{NextSeq: 7, Live: []ManifestEntry{{Name: "seg-00000001.kfs", Level: 0}}}))
	full := encodeManifest(nil, Manifest{
		NextSeq: 12,
		Live: []ManifestEntry{
			{Name: "seg-00000009.kfs", Level: 0},
			{Name: "lvl-00000008.kfs", Level: 1},
		},
		Retired: []string{"seg-00000002.kfs"},
	})
	f.Add(full)
	f.Add(encodeManifestV1(Manifest{NextSeq: 12, Live: []ManifestEntry{{Name: "lvl-00000008.kfs", Level: 1}}}))
	f.Add(encodeManifest(nil, Manifest{NextSeq: 3, MaxRecordID: 1<<63 + 5, Live: []ManifestEntry{{Name: "seg-00000002.kfs", Level: 0}}}))
	for cut := 0; cut < len(full); cut += 3 {
		f.Add(full[:cut])
	}
	for off := 0; off < len(full); off += 5 {
		mutated := append([]byte(nil), full...)
		mutated[off] ^= 0x40
		f.Add(mutated)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		re := encodeManifest(nil, m)
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encode of accepted manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(normalizeManifest(m), normalizeManifest(m2)) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
		if len(re) > len(b)+16 && !bytes.Equal(re, b) {
			t.Fatalf("re-encoding grew unexpectedly: %d -> %d bytes", len(b), len(re))
		}
	})
}
