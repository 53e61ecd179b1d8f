package attr

import (
	"testing"

	"kflushing/internal/spatial"
	"kflushing/internal/types"
)

func TestKeywordKeysDedupes(t *testing.T) {
	m := &types.Microblog{Keywords: []string{"a", "b", "a", "c", "b"}}
	got := KeywordKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestKeywordKeysFastPaths(t *testing.T) {
	if KeywordKeys(&types.Microblog{}) != nil {
		t.Fatal("empty keywords must return nil")
	}
	m := &types.Microblog{Keywords: []string{"only"}}
	got := KeywordKeys(m)
	if len(got) != 1 || got[0] != "only" {
		t.Fatalf("got %v", got)
	}
}

func TestHashStringSpreads(t *testing.T) {
	shards := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		shards[HashString(string(rune('a'+i%26))+string(rune('0'+i%10)))%16]++
	}
	for s, n := range shards {
		if n == 0 {
			t.Fatalf("shard %d empty", s)
		}
	}
}

func TestHashUint64SpreadsSequentialIDs(t *testing.T) {
	shards := map[uint64]int{}
	for i := uint64(0); i < 1024; i++ {
		shards[HashUint64(i)%16]++
	}
	// Sequential inputs must not collapse onto few shards.
	for s := uint64(0); s < 16; s++ {
		if shards[s] < 16 {
			t.Fatalf("shard %d underpopulated: %d", s, shards[s])
		}
	}
}

func TestUserKeys(t *testing.T) {
	m := &types.Microblog{UserID: 42}
	got := UserKeys(m)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	if got := UserKeys(&types.Microblog{}); got != nil {
		t.Fatalf("user 0 is no user, must carry no key; got %v", got)
	}
	if UserEncode(42) != "42" {
		t.Fatal("UserEncode")
	}
	if UserLen(42) != 0 {
		t.Fatal("UserLen must be 0 for fixed-size keys")
	}
}

func TestSpatialKeys(t *testing.T) {
	g := spatial.DefaultGrid()
	keys := SpatialKeys(g)
	if got := keys(&types.Microblog{}); got != nil {
		t.Fatal("non-geo record must have no spatial key")
	}
	m := &types.Microblog{HasGeo: true, Lat: 40, Lon: -90}
	got := keys(m)
	if len(got) != 1 || got[0] != g.CellOf(40, -90) {
		t.Fatalf("got %v", got)
	}
}

func TestCellEncodeDistinct(t *testing.T) {
	a := CellEncode(spatial.Cell{Row: 1, Col: 23})
	b := CellEncode(spatial.Cell{Row: 12, Col: 3})
	if a == b {
		t.Fatalf("cells encode identically: %q", a)
	}
	if CellLen(spatial.Cell{}) != 0 {
		t.Fatal("CellLen must be 0")
	}
}

func TestHashCellDistinguishesRowCol(t *testing.T) {
	a := HashCell(spatial.Cell{Row: 1, Col: 2})
	b := HashCell(spatial.Cell{Row: 2, Col: 1})
	if a == b {
		t.Fatal("transposed cells hash identically")
	}
}

// TestSpecsAgreeOnIndexability pins the rule the server's attribute
// table asks each spec: a record is indexed under an attribute exactly
// when the spec extracts at least one key from it.
func TestSpecsAgreeOnIndexability(t *testing.T) {
	kw, sp, us := Keyword(), Spatial(spatial.DefaultGrid()), User()
	if kw.Name != "keyword" || sp.Name != "spatial" || us.Name != "user" {
		t.Fatalf("spec names %q %q %q", kw.Name, sp.Name, us.Name)
	}
	for _, tc := range []struct {
		mb         types.Microblog
		kw, sp, us bool
	}{
		{types.Microblog{}, false, false, false},
		{types.Microblog{Keywords: []string{"a"}}, true, false, false},
		{types.Microblog{HasGeo: true, Lat: 40, Lon: -90}, false, true, false},
		{types.Microblog{UserID: 7}, false, false, true},
		{types.Microblog{Keywords: []string{"a", "a"}, HasGeo: true, UserID: 7}, true, true, true},
	} {
		got := [3]bool{len(kw.KeysOf(&tc.mb)) > 0, len(sp.KeysOf(&tc.mb)) > 0, len(us.KeysOf(&tc.mb)) > 0}
		if want := [3]bool{tc.kw, tc.sp, tc.us}; got != want {
			t.Errorf("%+v: indexed under keyword/spatial/user = %v, want %v", tc.mb, got, want)
		}
	}
}

// TestDecodeInvertsEncode round-trips every attribute's keys through
// the disk directory's encoding, and rejects strings Encode never
// produces.
func TestDecodeInvertsEncode(t *testing.T) {
	for _, kw := range []string{"go", "", "a,b", "#tag"} {
		if got, ok := KeywordDecode(KeywordEncode(kw)); !ok || got != kw {
			t.Errorf("keyword %q decodes to %q, %v", kw, got, ok)
		}
	}
	for _, u := range []uint64{1, 68, 1<<64 - 1} {
		if got, ok := UserDecode(UserEncode(u)); !ok || got != u {
			t.Errorf("user %d decodes to %d, %v", u, got, ok)
		}
	}
	for _, c := range []spatial.Cell{{}, {Row: 3, Col: -7}, {Row: -2147483648, Col: 2147483647}} {
		if got, ok := CellDecode(CellEncode(c)); !ok || got != c {
			t.Errorf("cell %v decodes to %v, %v", c, got, ok)
		}
	}
	for _, bad := range []string{"", "x", "1,", ",2", "1;2", "1,2,3"} {
		if _, ok := CellDecode(bad); ok {
			t.Errorf("CellDecode(%q) accepted", bad)
		}
	}
	if _, ok := UserDecode("-1"); ok {
		t.Error(`UserDecode("-1") accepted`)
	}
}
