package policy

import (
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/disk"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// memSink collects flushed records for assertions.
type memSink struct {
	recs    []disk.FlushRecord
	flushes int
}

func (s *memSink) Flush(recs []disk.FlushRecord, _ []*store.Record) {
	s.recs = append(s.recs, recs...)
	s.flushes++
}

// rig wires an index, store and policy for direct flush testing.
type rig struct {
	ix   *index.Index[string]
	st   *store.Store
	mem  *memsize.Tracker
	sink *memSink
	pol  Policy[string]
	next uint64
}

func newRig(k int, pol Policy[string]) *rig {
	r := &rig{st: store.New(), mem: &memsize.Tracker{}, sink: &memSink{}, pol: pol}
	r.ix = index.New(index.Config[string]{
		Hash:    attr.HashString,
		KeyLen:  attr.KeywordLen,
		K:       k,
		Tracker: r.mem,
	})
	pol.Attach(&Resources[string]{
		Index:  r.ix,
		Store:  r.st,
		Mem:    r.mem,
		Sink:   r.sink,
		KeysOf: attr.KeywordKeys,
		Clock:  clock.NewLogical(1, 1),
	})
	return r
}

func (r *rig) add(kws ...string) *store.Record {
	r.next++
	mb := &types.Microblog{
		ID:        types.ID(r.next),
		Timestamp: types.Timestamp(r.next),
		Keywords:  kws,
		Text:      "text",
	}
	rec := store.NewRecord(mb, float64(mb.Timestamp))
	r.st.Put(rec)
	r.mem.AddData(rec.Bytes)
	for _, kw := range attr.KeywordKeys(mb) {
		r.ix.Insert(kw, rec)
	}
	r.pol.OnIngest([]*store.Record{rec}, [][]string{attr.KeywordKeys(mb)})
	return rec
}

func TestFIFOEvictsOldestFirst(t *testing.T) {
	f := NewFIFO[string](600) // small segments
	r := newRig(5, f)
	var recs []*store.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, r.add(fmt.Sprintf("k%d", i)))
	}
	freed, err := f.Flush(400)
	if err != nil {
		t.Fatal(err)
	}
	if freed < 400 {
		t.Fatalf("freed %d < target", freed)
	}
	// The oldest records must be gone, the newest must remain.
	if r.st.Get(recs[0].MB.ID) != nil {
		t.Error("oldest record survived FIFO flush")
	}
	if r.st.Get(recs[11].MB.ID) == nil {
		t.Error("newest record evicted by FIFO flush")
	}
	// Flushed-out entries must be detached from the index.
	if r.ix.Entry("k0") != nil {
		t.Error("emptied entry still in index")
	}
}

func TestFIFOFlushOrderIsArrivalOrder(t *testing.T) {
	f := NewFIFO[string](1)
	r := newRig(5, f)
	for i := 0; i < 6; i++ {
		r.add("shared")
	}
	if _, err := f.Flush(1); err != nil {
		t.Fatal(err)
	}
	if len(r.sink.recs) == 0 {
		t.Fatal("nothing flushed")
	}
	for i := 1; i < len(r.sink.recs); i++ {
		if r.sink.recs[i].MB.ID < r.sink.recs[i-1].MB.ID {
			t.Fatal("flush order not arrival order")
		}
	}
}

func TestFIFOFlushExhaustion(t *testing.T) {
	f := NewFIFO[string](100)
	r := newRig(5, f)
	r.add("a")
	freed1, err := f.Flush(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if freed1 == 0 {
		t.Fatal("freed nothing")
	}
	freed2, err := f.Flush(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if freed2 != 0 {
		t.Fatalf("freed %d from an empty system", freed2)
	}
}

func TestFIFOOverheadTracksRecords(t *testing.T) {
	f := NewFIFO[string](1 << 20)
	r := newRig(5, f)
	for i := 0; i < 10; i++ {
		r.add("kw")
	}
	if got := f.OverheadBytes(); got != 80 {
		t.Fatalf("OverheadBytes = %d, want 80", got)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[string]()
	r := newRig(5, l)
	a := r.add("a")
	b := r.add("b")
	c := r.add("c")
	// Touch a: it becomes most recent; b is now the tail... order after
	// ingest (head→tail): c, b, a. Access a → a, c, b.
	l.OnAccess([]*store.Record{a})
	freed, err := l.Flush(200)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("freed nothing")
	}
	if r.st.Get(b.MB.ID) != nil {
		t.Error("least recently used record survived")
	}
	if r.st.Get(a.MB.ID) == nil || r.st.Get(c.MB.ID) == nil {
		t.Error("recently used records evicted")
	}
}

func TestLRUAccessAfterEvictionIsSafe(t *testing.T) {
	l := NewLRU[string]()
	r := newRig(5, l)
	a := r.add("a")
	if _, err := l.Flush(1 << 30); err != nil {
		t.Fatal(err)
	}
	// a is gone from the list; touching it must not relink or crash.
	l.OnAccess([]*store.Record{a})
	if got := l.OverheadBytes() - r.mem.PeakTemp(); got != 0 {
		t.Fatalf("list bytes = %d after full eviction", got)
	}
}

func TestLRUEvictsWholeRecordAcrossEntries(t *testing.T) {
	l := NewLRU[string]()
	r := newRig(5, l)
	shared := r.add("x", "y")
	if _, err := l.Flush(1 << 30); err != nil {
		t.Fatal(err)
	}
	if shared.PCount() != 0 {
		t.Fatalf("pcount = %d after eviction", shared.PCount())
	}
	if r.ix.Entry("x") != nil || r.ix.Entry("y") != nil {
		t.Error("entries not cleaned up")
	}
	if len(r.sink.recs) != 1 {
		t.Fatalf("flushed %d records, want 1", len(r.sink.recs))
	}
}

func TestVictimBufferChargesAndReleasesTemp(t *testing.T) {
	mem := &memsize.Tracker{}
	sink := &memSink{}
	buf := NewVictimBuffer(mem, sink, true)
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	buf.Add(rec)
	if buf.Len() != 1 || buf.Bytes() != rec.Bytes {
		t.Fatal("buffer accounting")
	}
	if mem.PeakTemp() != rec.Bytes {
		t.Fatal("temp not charged")
	}
	buf.Close()
	if sink.flushes != 1 || len(sink.recs) != 1 {
		t.Fatal("sink not written")
	}
}

func TestVictimBufferSkipsAlreadyOnDisk(t *testing.T) {
	sink := &memSink{}
	buf := NewVictimBuffer(nil, sink, false)
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	buf.AddPartial(rec)
	buf.Add(rec) // second write suppressed
	if buf.Len() != 1 {
		t.Fatalf("buffer holds %d, want 1", buf.Len())
	}
}

func TestUnrefFreesOnlyAtZero(t *testing.T) {
	mem := &memsize.Tracker{}
	st := store.New()
	ix := index.New(index.Config[string]{Hash: attr.HashString, KeyLen: attr.KeywordLen, K: 1})
	res := &Resources[string]{Index: ix, Store: st, Mem: mem, KeysOf: attr.KeywordKeys}
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	rec.Ref(2)
	st.Put(rec)
	mem.AddData(rec.Bytes)
	buf := NewVictimBuffer(mem, nil, false)
	if freed := res.release(rec, buf); freed != 0 {
		t.Fatalf("freed %d at pcount 1", freed)
	}
	if !rec.OnDisk() {
		t.Fatal("a record still referenced elsewhere was not persisted")
	}
	if freed := res.release(rec, buf); freed != rec.Bytes {
		t.Fatalf("freed %d at pcount 0, want %d", freed, rec.Bytes)
	}
	if st.Get(1) != nil {
		t.Fatal("record still stored after last unref")
	}
}
