package policy

import (
	"fmt"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/index"
	"kflushing/internal/memsize"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

// rig wires an index, a memory tracker and a policy for direct flush
// testing.
type rig struct {
	ix   *index.Index[string]
	mem  *memsize.Tracker
	pol  Policy[string]
	next uint64
}

func newRig(k int, pol Policy[string]) *rig {
	r := &rig{mem: &memsize.Tracker{}, pol: pol}
	r.ix = index.New(index.Config[string]{
		Hash:    attr.HashString,
		KeyLen:  attr.KeywordLen,
		K:       k,
		Tracker: r.mem,
	})
	pol.Attach(&Resources[string]{
		Index:  r.ix,
		Mem:    r.mem,
		KeysOf: attr.KeywordKeys,
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
	return r.admit(store.NewRecord(mb, float64(mb.Timestamp)))
}

// admit makes rec resident: counted, indexed, reported to the policy.
func (r *rig) admit(rec *store.Record) *store.Record {
	keys := attr.KeywordKeys(rec.MB)
	rec.Ref(int32(len(keys)))
	r.mem.AddRecords(1, rec.Bytes())
	for _, kw := range keys {
		r.ix.Link(kw, rec)
	}
	r.pol.OnIngest([]*store.Record{rec}, [][]string{keys})
	return rec
}

func TestFIFOEvictsOldestFirst(t *testing.T) {
	f := NewFIFO[string](600) // small segments
	r := newRig(5, f)
	var recs []*store.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, r.add(fmt.Sprintf("k%d", i)))
	}
	batch, err := f.Flush(400)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Freed < 400 {
		t.Fatalf("freed %d < target", batch.Freed)
	}
	// The oldest records must be gone, the newest must remain.
	if recs[0].PCount() > 0 {
		t.Error("oldest record survived FIFO flush")
	}
	if recs[11].PCount() == 0 {
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
	batch, err := f.Flush(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Recs) == 0 {
		t.Fatal("nothing flushed")
	}
	for i := 1; i < len(batch.Recs); i++ {
		if batch.Recs[i].MB.ID < batch.Recs[i-1].MB.ID {
			t.Fatal("flush order not arrival order")
		}
	}
}

func TestFIFOFlushExhaustion(t *testing.T) {
	f := NewFIFO[string](100)
	r := newRig(5, f)
	r.add("a")
	first, err := f.Flush(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if first.Freed == 0 {
		t.Fatal("freed nothing")
	}
	second, err := f.Flush(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if second.Freed != 0 {
		t.Fatalf("freed %d from an empty system", second.Freed)
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
	batch, err := l.Flush(200)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Freed == 0 {
		t.Fatal("freed nothing")
	}
	if b.PCount() > 0 {
		t.Error("least recently used record survived")
	}
	if a.PCount() == 0 || c.PCount() == 0 {
		t.Error("recently used records evicted")
	}
}

// TestLRURelinkAndRecycle: each record has its own list node, which
// OnAccess relinks in place; the tail goes first; and a wrapper recycled
// after its eviction keeps its node, emptied, and links again as the
// newest record without a second one.
func TestLRURelinkAndRecycle(t *testing.T) {
	l := NewLRU[string]()
	r := newRig(5, l)
	a, b, c := r.add("a"), r.add("b"), r.add("c")
	nodes := []*store.LRUNode{a.LRU, b.LRU, c.LRU}
	order := func() []*store.Record {
		var out []*store.Record
		for rec := l.head; rec != nil; rec = rec.LRU.Next {
			out = append(out, rec)
		}
		return out
	}
	l.OnAccess([]*store.Record{a, c, a}) // c, b, a → a, c, b → c, a, b → a, c, b
	if got := order(); len(got) != 3 || got[0] != a || got[1] != c || got[2] != b || l.tail != b {
		t.Fatalf("list after access = %v, want a, c, b", got)
	}
	if a.LRU != nodes[0] || b.LRU != nodes[1] || c.LRU != nodes[2] || a.LRU.Prev != nil || b.LRU.Next != nil {
		t.Fatal("relinking replaced or mislinked a node")
	}
	if _, err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	if b.PCount() != 0 || a.PCount() == 0 || c.PCount() == 0 || l.tail != c {
		t.Fatalf("flush took the wrong record: pcounts a=%d b=%d c=%d", a.PCount(), b.PCount(), c.PCount())
	}
	store.ResetRecord(b, &types.Microblog{ID: 9, Timestamp: 9, Keywords: []string{"d"}, Text: "text"}, 9)
	if b.LRU != nodes[1] || *b.LRU != (store.LRUNode{}) {
		t.Fatal("the recycled wrapper lost its node or kept its links")
	}
	r.admit(b)
	if got := order(); len(got) != 3 || got[0] != b || got[1] != a || got[2] != c || b.LRU != nodes[1] {
		t.Fatalf("list after re-admission = %v, want b, a, c on b's old node", got)
	}
	if got := l.OverheadBytes() - r.mem.PeakTemp(); got != 3*16 {
		t.Fatalf("list bytes = %d, want 3 nodes of 16", got)
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
	batch, err := l.Flush(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if shared.PCount() != 0 {
		t.Fatalf("pcount = %d after eviction", shared.PCount())
	}
	if r.ix.Entry("x") != nil || r.ix.Entry("y") != nil {
		t.Error("entries not cleaned up")
	}
	if len(batch.Recs) != 1 {
		t.Fatalf("flushed %d records, want 1", len(batch.Recs))
	}
}

func TestVictimBufferChargesAndReleasesTemp(t *testing.T) {
	mem := &memsize.Tracker{}
	buf := NewVictimBuffer(mem, true)
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	buf.Add(rec)
	if mem.PeakTemp() != rec.Bytes() {
		t.Fatal("temp not charged")
	}
	batch := buf.Close()
	if len(batch.Recs) != 1 || batch.From[0] != rec || len(batch.Dead) != 1 {
		t.Fatal("batch not returned")
	}
	buf.Add(store.NewRecord(&types.Microblog{ID: 2, Keywords: []string{"a"}}, 2))
	if mem.PeakTemp() != rec.Bytes() {
		t.Fatal("temp not released on Close")
	}
}

func TestVictimBufferSkipsAlreadyOnDisk(t *testing.T) {
	buf := NewVictimBuffer(nil, false)
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	buf.AddPartial(rec)
	buf.Add(rec) // second write suppressed
	if batch := buf.Close(); len(batch.Recs) != 1 {
		t.Fatalf("buffer holds %d, want 1", len(batch.Recs))
	}
}

func TestUnrefFreesOnlyAtZero(t *testing.T) {
	mem := &memsize.Tracker{}
	ix := index.New(index.Config[string]{Hash: attr.HashString, KeyLen: attr.KeywordLen, K: 1})
	res := &Resources[string]{Index: ix, Mem: mem, KeysOf: attr.KeywordKeys}
	rec := store.NewRecord(&types.Microblog{ID: 1, Keywords: []string{"a"}}, 1)
	rec.Ref(2)
	mem.AddRecords(1, rec.Bytes())
	buf := NewVictimBuffer(mem, false)
	if freed := res.release(rec, buf); freed != 0 {
		t.Fatalf("freed %d at pcount 1", freed)
	}
	if !rec.OnDisk() {
		t.Fatal("a record still referenced elsewhere was not persisted")
	}
	if freed := res.release(rec, buf); freed != rec.Bytes() {
		t.Fatalf("freed %d at pcount 0, want %d", freed, rec.Bytes())
	}
	if mem.Records() != 0 || mem.Data() != 0 {
		t.Fatalf("%d records, %d bytes still resident after last unref", mem.Records(), mem.Data())
	}
}
