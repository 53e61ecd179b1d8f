package alloc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    Policy
		wantErr bool
	}{
		{"", PolicyPooled, false},
		{"pooled", PolicyPooled, false},
		{"heap", PolicyHeap, false},
		{"slab", PolicyPooled, true},
		{"POOLED", PolicyPooled, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParsePolicy(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if PolicyPooled.String() != "pooled" || PolicyHeap.String() != "heap" {
		t.Errorf("String(): got %q/%q", PolicyPooled, PolicyHeap)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {4, 0}, {5, 1}, {16, 1}, {17, 2},
		{64, 2}, {65, 3}, {256, 3}, {257, 4}, {1024, 4}, {1025, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSlicePoolNilIsHeap(t *testing.T) {
	var p *SlicePool[int]
	s := p.Get(10)
	if len(s) != 0 || cap(s) < 10 {
		t.Fatalf("nil Get(10): len=%d cap=%d", len(s), cap(s))
	}
	p.Put(s) // must not panic
	s = append(s, 1, 2, 3)
	s = p.Grow(s)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("nil Grow lost elements: %v", s)
	}
	if (p.Stats() != SliceStats{}) {
		t.Fatal("nil pool must report zero stats")
	}
	if NewSlicePool[int](PolicyHeap) != nil {
		t.Fatal("NewSlicePool(PolicyHeap) must be nil")
	}
}

func TestSlicePoolReuseAndZeroing(t *testing.T) {
	p := NewSlicePool[*int](PolicyPooled)
	if p == nil {
		t.Fatal("NewSlicePool(PolicyPooled) must not be nil")
	}
	s := p.Get(3)
	if cap(s) != 4 {
		t.Fatalf("Get(3) cap = %d, want class cap 4", cap(s))
	}
	x := 7
	s = append(s, &x, &x, &x)
	p.Put(s)
	// The returned array must come back for a matching request, zeroed.
	s2 := p.Get(4)
	if cap(s2) != 4 {
		t.Fatalf("reuse cap = %d", cap(s2))
	}
	if &s[0] != &s2[:1][0] {
		t.Fatal("Get after Put did not reuse the backing array")
	}
	full := s2[:cap(s2)]
	for i, v := range full {
		if v != nil {
			t.Fatalf("slot %d not zeroed after Put", i)
		}
	}
	st := p.Stats()
	if st.Gets != 2 || st.Reuses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IdleArrays != 0 || st.IdleElems != 0 {
		t.Fatalf("idle gauges after reuse = %+v", st)
	}
}

func TestSlicePoolGetScansOneClassUp(t *testing.T) {
	p := NewSlicePool[int](PolicyPooled)
	p.Put(make([]int, 0, 16))
	s := p.Get(3) // exact class 4 empty; class 16 is one up and usable
	if cap(s) != 16 {
		t.Fatalf("Get(3) with only a 16-array idle: cap = %d, want 16", cap(s))
	}
	p.Put(make([]int, 0, 64))
	s = p.Get(3) // 64 is two classes up — too wasteful, allocate fresh
	if cap(s) != 4 {
		t.Fatalf("Get(3) must not take a 64-array: cap = %d, want 4", cap(s))
	}
}

func TestSlicePoolPutDiscards(t *testing.T) {
	p := NewSlicePool[int](PolicyPooled)
	p.Put(make([]int, 0, 7)) // capacity matches no class
	if st := p.Stats(); st.Discards != 1 || st.IdleArrays != 0 {
		t.Fatalf("off-class Put: %+v", st)
	}
	// Overfill a class: idle bound is maxClassIdleElems elements.
	n := maxClassIdleElems/classCaps[0] + 5
	for i := 0; i < n; i++ {
		p.Put(make([]int, 0, classCaps[0]))
	}
	st := p.Stats()
	if st.IdleElems > maxClassIdleElems {
		t.Fatalf("idle elems %d exceeds bound %d", st.IdleElems, maxClassIdleElems)
	}
	if st.Discards != 1+5 {
		t.Fatalf("discards = %d, want 6", st.Discards)
	}
}

func TestSlicePoolBeyondLargestClass(t *testing.T) {
	p := NewSlicePool[int](PolicyPooled)
	s := p.Get(5000)
	if cap(s) < 5000 {
		t.Fatalf("huge Get cap = %d", cap(s))
	}
	p.Put(s)
	if st := p.Stats(); st.IdleArrays != 0 {
		t.Fatal("off-class arrays must not be retained")
	}
}

func TestSlicePoolGrow(t *testing.T) {
	p := NewSlicePool[int](PolicyPooled)
	s := p.Get(4)
	for i := 0; i < 4; i++ {
		s = append(s, i)
	}
	old := s
	s = p.Grow(s)
	if cap(s) != 16 || len(s) != 4 {
		t.Fatalf("Grow: len=%d cap=%d, want 4/16", len(s), cap(s))
	}
	for i := 0; i < 4; i++ {
		if s[i] != i {
			t.Fatalf("Grow lost element %d", i)
		}
	}
	// The old array must have been recycled (and zeroed).
	s2 := p.Get(4)
	if &old[:1][0] != &s2[:1][0] {
		t.Fatal("Grow did not recycle the old backing array")
	}
}

func TestShrinkThreshold(t *testing.T) {
	cases := []struct {
		n, c int
		want bool
	}{
		{3, 1024, true},     // 3 fits class 4; 4*4 <= 1024
		{3, 16, true},       // 4*4 <= 16: exactly two classes down
		{5, 16, false},      // 5 needs class 16 already
		{3, 8, false},       // one class down only
		{1500, 4096, false}, // beyond largest class: never repack
		{0, 1024, true},
	}
	for _, c := range cases {
		if got := ShrinkThreshold(c.n, c.c); got != c.want {
			t.Errorf("ShrinkThreshold(%d,%d) = %v, want %v", c.n, c.c, got, c.want)
		}
	}
}

func TestSlicePoolConcurrent(t *testing.T) {
	p := NewSlicePool[*int](PolicyPooled)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := p.Get(i % 40)
				v := i
				s = append(s, &v)
				s = p.Grow(s)
				p.Put(s)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.IdleElems < 0 || st.IdleArrays < 0 {
		t.Fatalf("negative idle gauges: %+v", st)
	}
}

func TestRecyclerNilIsHeap(t *testing.T) {
	var r *Recycler[*int]
	e := r.Pin()
	r.Unpin(e)
	r.Free([]*int{new(int)})
	if _, ok := r.Get(); ok {
		t.Fatal("nil recycler must always miss")
	}
	if (r.Stats() != RecyclerStats{}) {
		t.Fatal("nil recycler must report zero stats")
	}
	if NewRecycler[int](PolicyHeap) != nil {
		t.Fatal("NewRecycler(PolicyHeap) must be nil")
	}
}

func TestRecyclerQuarantine(t *testing.T) {
	r := NewRecycler[*int](PolicyPooled)
	v := new(int)
	r.Free([]*int{v})
	// With no pinned readers at all, nothing can hold v's pointer, so
	// the epoch advances freely and a few Gets reclaim it.
	var out *int
	for i := 0; i < 4; i++ {
		if g, ok := r.Get(); ok {
			out = g
			break
		}
	}
	if out != v {
		t.Fatalf("quarantined object never reclaimed: got %p want %p", out, v)
	}
}

func TestRecyclerPinBlocksReclaim(t *testing.T) {
	r := NewRecycler[*int](PolicyPooled)
	e := r.Pin() // a reader holds the current epoch
	v := new(int)
	r.Free([]*int{v})
	for i := 0; i < 10; i++ {
		if _, ok := r.Get(); ok {
			t.Fatal("object reclaimed while a reader from its free epoch is pinned")
		}
	}
	r.Unpin(e)
	var out *int
	for i := 0; i < 4; i++ {
		if g, ok := r.Get(); ok {
			out = g
			break
		}
	}
	if out != v {
		t.Fatal("object not reclaimed after the pinned reader left")
	}
}

func TestRecyclerLaterPinDoesNotBlockForever(t *testing.T) {
	r := NewRecycler[*int](PolicyPooled)
	v := new(int)
	r.Free([]*int{v})
	// Advance past the free epoch, then pin: the new reader pinned at a
	// later epoch can never have seen v, so reclaim must still happen.
	r.ep.tryAdvance()
	e := r.Pin()
	defer r.Unpin(e)
	var out *int
	for i := 0; i < 6; i++ {
		if g, ok := r.Get(); ok {
			out = g
			break
		}
	}
	if out != v {
		t.Fatal("reader pinned after the free epoch must not block reclaim forever")
	}
}

func TestRecyclerStatsAndOrder(t *testing.T) {
	r := NewRecycler[int](PolicyPooled)
	r.Free([]int{1, 2, 3})
	st := r.Stats()
	if st.Frees != 3 || st.Limbo != 3 || st.Free != 0 {
		t.Fatalf("after Free: %+v", st)
	}
	seen := map[int]bool{}
	for i := 0; i < 8 && len(seen) < 3; i++ {
		if v, ok := r.Get(); ok {
			seen[v] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("reclaimed %d of 3", len(seen))
	}
	st = r.Stats()
	if st.Reuses != 3 || st.Limbo != 0 || st.Free != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestRecyclerConcurrent(t *testing.T) {
	r := NewRecycler[*int](PolicyPooled)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers pin/unpin in a loop.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := r.Pin()
				r.Unpin(e)
			}
		}()
	}
	// Writers free and reuse.
	var ww sync.WaitGroup
	for g := 0; g < 4; g++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < 5000; i++ {
				v, ok := r.Get()
				if !ok {
					v = new(int)
				}
				*v = i
				r.Free([]*int{v})
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	st := r.Stats()
	if st.Frees != 4*5000 {
		t.Fatalf("frees = %d", st.Frees)
	}
}

func TestEpochGuardAdvance(t *testing.T) {
	var g epochGuard
	e0 := g.pin()
	if !g.tryAdvance() {
		t.Fatal("advance with only current-epoch pins must succeed")
	}
	// Now a reader from the previous parity is active: a second advance
	// must be blocked.
	if g.tryAdvance() {
		t.Fatal("advance must be blocked by the e0 reader")
	}
	g.unpin(e0)
	if !g.tryAdvance() {
		t.Fatal("advance after unpin must succeed")
	}
	if got := g.global.Load(); got != 2 {
		t.Fatalf("global = %d, want 2", got)
	}
}

// TestEpochPinBoundsAdvance races pin against an advancer that never
// stops trying. pin re-reads the global epoch after registering, so a
// reader pinned at e registered while the global was e, and the advance
// from e+1 waits for it: while it is pinned the global is e or e+1.
// Drop the re-read and the epoch can move between pin's load and its
// registration; the registration then lands in a parity an in-flight
// advance has already checked, two advances pass under the reader, and
// a record it copied is reclaimed while it still holds it. The bound is
// what this test checks; on two CPUs the unvalidated pin breaks it
// within a few thousand passes.
func TestEpochPinBoundsAdvance(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the pin/advance race needs two CPUs")
	}
	var g epochGuard
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			g.tryAdvance()
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	for g.global.Load() == 0 {
		runtime.Gosched() // wait for the advancer to run
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; i&1023 != 0 || time.Now().Before(deadline); i++ {
		e := g.pin()
		if now := g.global.Load(); now > e+1 {
			t.Fatalf("pass %d: pin returned epoch %d with the global already at %d", i, e, now)
		}
		g.unpin(e)
	}
}
