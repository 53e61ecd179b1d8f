package store

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"kflushing/internal/memsize"
	"kflushing/internal/types"
)

func rec(id uint64) *Record {
	return NewRecord(&types.Microblog{
		ID:        types.ID(id),
		Timestamp: types.Timestamp(id),
		Keywords:  []string{"kw"},
		Text:      "0123456789",
	}, float64(id))
}

func TestPutGetRemove(t *testing.T) {
	s := New()
	r := rec(1)
	s.Put(r)
	if got := s.Get(1); got != r {
		t.Fatal("Get returned wrong record")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Bytes() != r.Bytes() {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), r.Bytes())
	}
	if got := s.Remove(1); got != r {
		t.Fatal("Remove returned wrong record")
	}
	if s.Get(1) != nil || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("store not empty after removal")
	}
	if s.Remove(1) != nil {
		t.Fatal("double remove returned a record")
	}
}

func TestPutReplaceAccountsOnce(t *testing.T) {
	s := New()
	a, b := rec(1), rec(1)
	s.Put(a)
	s.Put(b)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replace", s.Len())
	}
	if s.Bytes() != b.Bytes() {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), b.Bytes())
	}
}

func TestRecordBytesMatchModel(t *testing.T) {
	r := rec(1)
	want := memsize.RecordBytes(10, []string{"kw"})
	if r.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", r.Bytes(), want)
	}
}

// TestRecordSizeClass pins what memsize.RecordHeader charges to the two
// structs it stands for: a types.Microblog of 96 B and a Record of 48 B,
// each one Go allocation size class. A field that pushes either past its
// class (the next are 112 B and 64 B) fails here, before the model's
// per-record charge silently stops matching the heap.
func TestRecordSizeClass(t *testing.T) {
	mb, rec := unsafe.Sizeof(types.Microblog{}), unsafe.Sizeof(Record{})
	if mb > 96 || rec > 48 {
		t.Fatalf("Microblog is %d B (class 96), Record %d B (class 48)", mb, rec)
	}
	if memsize.RecordHeader != 96+48 {
		t.Fatalf("memsize.RecordHeader = %d, want the two classes, %d", memsize.RecordHeader, 96+48)
	}
}

func TestRefCounting(t *testing.T) {
	r := rec(1)
	if r.Ref(2) != 2 {
		t.Fatal("Ref")
	}
	if r.Unref() != 1 || r.Unref() != 0 {
		t.Fatal("Unref sequence")
	}
	if r.PCount() != 0 {
		t.Fatal("PCount")
	}
}

func TestMarkOnDiskOnce(t *testing.T) {
	r := rec(1)
	if !r.MarkOnDisk() {
		t.Fatal("first MarkOnDisk must win")
	}
	if r.MarkOnDisk() {
		t.Fatal("second MarkOnDisk must lose")
	}
	if !r.OnDisk() {
		t.Fatal("OnDisk")
	}
}

func TestTopKRefCounter(t *testing.T) {
	r := rec(1)
	r.TopKRef(1)
	r.TopKRef(1)
	if r.TopKCount() != 2 {
		t.Fatal("TopKCount")
	}
	r.TopKRef(-2)
	if r.TopKCount() != 0 {
		t.Fatal("TopKCount after decrement")
	}
}

func TestRangeVisitsAll(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 100; i++ {
		s.Put(rec(i))
	}
	seen := map[types.ID]bool{}
	s.Range(func(r *Record) bool {
		seen[r.MB.ID] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d of 100", len(seen))
	}
	// Early termination.
	n := 0
	s.Range(func(*Record) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range early-exit visited %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				id := base*1000 + i + 1
				s.Put(rec(id))
				if s.Get(types.ID(id)) == nil {
					t.Error("lost record")
					return
				}
				if i%2 == 0 {
					s.Remove(types.ID(id))
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if s.Len() != 4*500 {
		t.Fatalf("Len = %d, want %d", s.Len(), 4*500)
	}
}

// Property: Len and Bytes always equal the sum over live records.
func TestAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		live := map[types.ID]*Record{}
		for i, op := range ops {
			id := uint64(op%16) + 1
			if i%2 == 0 {
				r := rec(id)
				s.Put(r)
				live[types.ID(id)] = r
			} else {
				s.Remove(types.ID(id))
				delete(live, types.ID(id))
			}
		}
		var bytes int64
		for _, r := range live {
			bytes += r.Bytes()
		}
		return s.Len() == int64(len(live)) && s.Bytes() == bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
