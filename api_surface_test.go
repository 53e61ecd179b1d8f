package kflushing_test

import (
	"reflect"
	"testing"

	"kflushing"
	"kflushing/internal/engine"
	"kflushing/internal/spatial"
)

// The three system types get most of their methods by embedding
// kflushing.AttrSystem[K]. These interfaces spell out each type's public
// method set as it stood before the embedding (PR 20), method by method
// and type by type, so that a change to the shared core that drops or
// re-types a method of any system fails to compile here rather than in
// a caller's build.

type systemAPI interface {
	Ingest(*kflushing.Microblog) (kflushing.ID, error)
	IngestBatch([]*kflushing.Microblog) ([]kflushing.ID, error)
	Search(keywords []string, op kflushing.Op, k int) (kflushing.Result, error)
	SearchKeyword(keyword string, k int) (kflushing.Result, error)
	SearchTraced(keywords []string, op kflushing.Op, k int) (kflushing.Result, *kflushing.Trace, error)
	FlushLog(n int) []kflushing.FlushEvent
	BlackboxEvents() []kflushing.BlackboxEvent
	SlowQueries() []kflushing.SlowQuery
	SetK(k int)
	FlushNow() (int64, error)
	CompactNow() error
	CompactAll() error
	Stats() kflushing.Stats
	Err() error
	Ready() error
	DiskHealth() kflushing.DiskHealth
	Close() error
	Engine() *engine.Engine[string]
}

type spatialSystemAPI interface {
	Grid() *spatial.Grid
	Ingest(*kflushing.Microblog) (kflushing.ID, error)
	IngestBatch([]*kflushing.Microblog) ([]kflushing.ID, error)
	SearchAt(lat, lon float64, k int) (kflushing.Result, error)
	SearchRadius(lat, lon, radiusMiles float64, k int) (kflushing.Result, error)
	SearchCells(cells []kflushing.Cell, op kflushing.Op, k int) (kflushing.Result, error)
	SearchCellsTraced(cells []kflushing.Cell, op kflushing.Op, k int) (kflushing.Result, *kflushing.Trace, error)
	FlushLog(n int) []kflushing.FlushEvent
	BlackboxEvents() []kflushing.BlackboxEvent
	SlowQueries() []kflushing.SlowQuery
	Ready() error
	DiskHealth() kflushing.DiskHealth
	SetK(k int)
	FlushNow() (int64, error)
	Stats() kflushing.Stats
	Close() error
	Engine() *engine.Engine[kflushing.Cell]
}

type userSystemAPI interface {
	Ingest(*kflushing.Microblog) (kflushing.ID, error)
	IngestBatch([]*kflushing.Microblog) ([]kflushing.ID, error)
	SearchUser(userID uint64, k int) (kflushing.Result, error)
	SearchUserTraced(userID uint64, k int) (kflushing.Result, *kflushing.Trace, error)
	FlushLog(n int) []kflushing.FlushEvent
	BlackboxEvents() []kflushing.BlackboxEvent
	SlowQueries() []kflushing.SlowQuery
	Ready() error
	DiskHealth() kflushing.DiskHealth
	SetK(k int)
	FlushNow() (int64, error)
	Stats() kflushing.Stats
	Close() error
	Engine() *engine.Engine[uint64]
}

// sharedAPI is what the embedding added to every system: the generic
// search pair, the two methods the server's attribute table asks, and the
// maintenance calls only System had.
type sharedAPI[K comparable] interface {
	Attr() string
	Indexes(*kflushing.Microblog) bool
	Search(keys []K, op kflushing.Op, k int) (kflushing.Result, error)
	SearchTraced(keys []K, op kflushing.Op, k int) (kflushing.Result, *kflushing.Trace, error)
	CompactNow() error
	CompactAll() error
	Err() error
}

var (
	_ systemAPI                 = (*kflushing.System)(nil)
	_ spatialSystemAPI          = (*kflushing.SpatialSystem)(nil)
	_ userSystemAPI             = (*kflushing.UserSystem)(nil)
	_ sharedAPI[string]         = (*kflushing.System)(nil)
	_ sharedAPI[kflushing.Cell] = (*kflushing.SpatialSystem)(nil)
	_ sharedAPI[uint64]         = (*kflushing.UserSystem)(nil)
)

// TestAPISurface is the name CI runs; the assertions above are checked
// when this file compiles. It also pins the size of Options and the
// attribute names, which are the keys of every per-attribute map the
// server returns.
func TestAPISurface(t *testing.T) {
	if n := reflect.TypeOf(kflushing.Options{}).NumField(); n != 11 {
		t.Errorf("Options has %d fields, want 11: an option was added or removed", n)
	}
	opt := kflushing.Options{SyncFlush: true}
	kw, err := kflushing.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer kw.Close()
	sp, err := kflushing.OpenSpatial(t.TempDir(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	us, err := kflushing.OpenUser(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	if got := [3]string{kw.Attr(), sp.Attr(), us.Attr()}; got != [3]string{"keyword", "spatial", "user"} {
		t.Fatalf("attribute names = %v", got)
	}
}
