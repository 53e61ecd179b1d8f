package memsize

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRecordBytesComposition(t *testing.T) {
	base := RecordBytes(0, nil)
	if base != RecordHeader {
		t.Fatalf("empty record = %d, want %d", base, RecordHeader)
	}
	withText := RecordBytes(100, nil)
	if withText != base+100 {
		t.Fatalf("text not charged: %d", withText)
	}
	withKw := RecordBytes(0, []string{"abcd"})
	if withKw != base+16+4 {
		t.Fatalf("keyword not charged: %d", withKw)
	}
}

func TestEntryBytes(t *testing.T) {
	if EntryBytes(0) != EntryHeader {
		t.Fatal("integer key entry")
	}
	if EntryBytes(5) != EntryHeader+5 {
		t.Fatal("string key entry")
	}
}

func TestTrackerGauges(t *testing.T) {
	var tr Tracker
	tr.AddRecords(2, 100)
	tr.AddIndex(50)
	if tr.Used() != 150 {
		t.Fatalf("Used = %d", tr.Used())
	}
	if tr.Records() != 2 || tr.Data() != 100 || tr.Index() != 50 {
		t.Fatal("gauge mismatch")
	}
	tr.AddRecords(-2, -100)
	tr.AddIndex(-50)
	if tr.Used() != 0 || tr.Records() != 0 {
		t.Fatalf("Used after release = %d, %d records", tr.Used(), tr.Records())
	}
}

func TestPeakTemp(t *testing.T) {
	var tr Tracker
	tr.AddTemp(10)
	tr.AddTemp(20) // now 30
	tr.AddTemp(-30)
	tr.AddTemp(5)
	if tr.PeakTemp() != 30 {
		t.Fatalf("PeakTemp = %d, want 30", tr.PeakTemp())
	}
}

func TestPeakTempConcurrent(t *testing.T) {
	var tr Tracker
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.AddTemp(3)
				tr.AddTemp(-3)
			}
		}()
	}
	wg.Wait()
	if p := tr.PeakTemp(); p < 3 || p > 24 {
		t.Fatalf("PeakTemp = %d outside [3,24]", p)
	}
}

// Property: RecordBytes is monotone in text length and keyword count.
func TestRecordBytesMonotone(t *testing.T) {
	f := func(textLen uint16, nkw uint8) bool {
		kws := make([]string, nkw%8)
		for i := range kws {
			kws[i] = "kw"
		}
		a := RecordBytes(int(textLen), kws)
		b := RecordBytes(int(textLen)+1, kws)
		c := RecordBytes(int(textLen), append(kws, "x"))
		return b > a && c > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
