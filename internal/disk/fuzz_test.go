package disk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"kflushing/internal/types"
)

// FuzzDecodeRecord throws arbitrary bytes at the record decoder as a
// page payload, walked record by record through a page cursor: it must
// never panic or over-read, only return ErrCorrupt-style failures, and
// every record it accepts must measure, stepped over by its rank prefix
// and length fields alone (rank), as long as the decoder consumed, and
// survive a re-encode — relative or absolute, as it was stored —
// unchanged.
func FuzzDecodeRecord(f *testing.F) {
	rec := FlushRecord{
		MB:    &types.Microblog{ID: 1, Keywords: []string{"a"}, Text: "t"},
		Score: 1,
	}
	f.Add([]byte{})
	f.Add(EncodeRecord(nil, rec))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	rec.MB.Lat, rec.MB.Lon = 40.5, -74.2
	f.Add(EncodeRecord(nil, rec))
	rec.Score = math.NaN()
	f.Add(EncodeRecord(nil, rec))
	f.Add([]byte{flagsKnown, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	stream := []FlushRecord{fr(900, 1.7e15, "a"), fr(901, 1.7e15+300, "b"), fr(899, 1.7e15-20, "c")}
	// Pages of a v6 writer (every record relative) and of a v5 one
	// (every record absolute), one mixing both, and a relative record
	// whose ID delta lands on 0.
	f.Add(recordPayload(stream, false))
	f.Add(recordPayload(stream, true))
	f.Add(mixedPayload(stream))
	f.Add([]byte{flagRelative, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := pageCursor{q: data}
		for len(c.q) > 0 {
			stepped := c // must not panic on any input
			id, score, serr := stepped.rank()
			before, rel := c.pageBase, c.q[0]&flagRelative != 0
			fr, n, err := c.next()
			if err != nil {
				return
			}
			if n > len(data) || fr.MB == nil {
				t.Fatalf("decoder consumed %d of %d bytes, record %v", n, len(data), fr.MB)
			}
			// A page walk steps over a record by its length fields alone.
			if serr != nil || len(stepped.q) != len(c.q) || stepped.pageBase != c.pageBase {
				t.Fatalf("rank stepped to %d bytes left, %v; the decoder to %d", len(stepped.q), serr, len(c.q))
			}
			if id != uint64(fr.MB.ID) || math.Float64bits(score) != math.Float64bits(fr.Score) {
				t.Fatalf("rank prefix %d, %v disagrees with the record", id, score)
			}
			if rel && fr.MB.ID == 0 {
				t.Fatal("a relative record decoded to ID 0")
			}
			// Anything readable is writable: the encoding loses no field,
			// NaN and -0 included.
			buf := reencode(fr, before, rel)
			again := pageCursor{pageBase: before, q: buf}
			out, m, err := again.next()
			if err != nil || m != len(buf) || !bytes.Equal(reencode(out, before, rel), buf) {
				t.Fatalf("decoded record does not survive a re-encode: %v", err)
			}
		}
	})
}

// reencode encodes fr after a record leaving base, relative when rel
// says so, absolute otherwise.
func reencode(fr FlushRecord, base pageBase, rel bool) []byte {
	if !rel {
		return appendRecord(nil, fr, nil)
	}
	out := appendRecord(nil, fr, &base)
	if out[0]&flagRelative == 0 {
		panic("a relative record's ID is out of its delta's reach")
	}
	return out
}

// recordPayload is the page payload holding recs: every record relative
// as a v6 writer writes them, or absolute as a v5 writer did.
func recordPayload(recs []FlushRecord, absolute bool) []byte {
	var buf []byte
	var base pageBase
	for _, r := range recs {
		if absolute {
			buf = appendRecord(buf, r, nil)
		} else {
			buf = appendRecord(buf, r, &base)
		}
	}
	return buf
}

// mixedPayload is a page payload of recs alternating absolute and
// relative records, each relative one coded against the record before
// it whatever that one's coding.
func mixedPayload(recs []FlushRecord) []byte {
	var buf []byte
	var base pageBase
	for i, r := range recs {
		if i%2 == 0 {
			buf = appendRecord(buf, r, nil)
			base = pageBase{uint64(r.MB.ID), int64(r.MB.Timestamp)}
		} else {
			buf = appendRecord(buf, r, &base)
		}
	}
	return buf
}

// FuzzBloomDecode throws arbitrary bytes at the Bloom-block decoder: it
// must never panic or over-read, and anything it accepts must re-encode
// to a filter with the same answers.
func FuzzBloomDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(newBloomFilter([]string{"a", "b", "c"}).encode(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := decodeBloom(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		if b == nil {
			t.Fatal("nil filter without error")
		}
		// A decoded filter must survive its own encode→decode cycle with
		// identical membership behaviour.
		re, _, err := decodeBloom(b.encode(nil))
		if err != nil {
			t.Fatalf("re-decode of accepted filter failed: %v", err)
		}
		for _, probe := range []string{"", "a", "probe-key", string(data)} {
			if b.mayContain(probe) != re.mayContain(probe) {
				t.Fatalf("membership changed across re-encode for %q", probe)
			}
		}
	})
}

// keySection encodes lists, keyed and ranked as a directory holds them,
// as a key section.
func keySection(lists map[string][]uint32) []byte {
	s := &segment{}
	s.setKeys(lists)
	return appendKeys(nil, s.keys, s.start, s.posts)
}

// FuzzDecodeKeys throws arbitrary bytes at the key-section decoder: it
// must never panic, never allocate more than the input's length bounds,
// and whatever it accepts must re-encode to the same bytes.
func FuzzDecodeKeys(f *testing.F) {
	f.Add(keySection(map[string][]uint32{"a": {0, 2}, "ab": {1}, "b": {2, 0, 1}}), uint32(3))
	many := make(map[string][]uint32)
	for i := 0; i < 2000; i++ {
		// Ordinals ascend in a record block's lists and mostly descend in a
		// log file's.
		p, q := uint32(i%500), uint32(i%500+3)
		if i%2 == 1 {
			p, q = q, p
		}
		many[fmt.Sprintf("tag%05x", i*7919)] = []uint32{p, q}
	}
	f.Add(keySection(many), uint32(503))
	f.Add(keySection(map[string][]uint32{"only": {41}}), uint32(42))
	f.Add(keySection(map[string][]uint32{strings.Repeat("x", 70_000): {0}, "short": {0}}), uint32(1))
	f.Add(keySection(nil), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, limit uint32) {
		keys, start, posts, err := decodeKeys(data, limit)
		if err != nil {
			return
		}
		// Counts are bounded by the bytes that carry them, and a key by
		// the bytes of its key block: a block closes at keyBlockSize, and
		// a key takes at least three bytes of it.
		keyBytes := 0
		for _, k := range keys {
			keyBytes += len(k)
		}
		if cap(start) > len(data)/3+1 || cap(posts) > len(data) || keyBytes > (keyBlockSize/3+1)*len(data) {
			t.Fatalf("%d bytes decoded into %d starts, %d postings, %d key bytes", len(data), cap(start), cap(posts), keyBytes)
		}
		if len(start) != len(keys)+1 || int(start[len(keys)]) != len(posts) {
			t.Fatalf("%d keys, %d starts, %d postings", len(keys), len(start), len(posts))
		}
		for _, p := range posts {
			if p >= limit {
				t.Fatalf("posting %d accepted at limit %d", p, limit)
			}
		}
		if again := appendKeys(nil, keys, start, posts); !bytes.Equal(again, data) {
			t.Fatalf("accepted section does not re-encode to its own bytes:\n%x\n%x", data, again)
		}
	})
}

// FuzzRecordRoundTrip checks encode→decode identity over fuzzed fields,
// bit for bit: a score that is not the timestamp, NaN and -0 scores and
// coordinates, coordinates without HasGeo, and up to 255 keywords. The
// record is the second of a page, after one with ID prev and timestamp
// prevTS, stored relative — unless its ID is out of the delta's reach —
// or, when absolute says so, as a v5 writer stored it.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(2), uint64(3), uint32(4), 0.0, true, 1.5, -2.5, true, uint8(1), "kw", "text", uint64(0), int64(0), false)
	f.Add(uint64(1), int64(2), uint64(3), uint32(4), math.NaN(), false, 1.5, -2.5, true, uint8(1), "kw", "text", uint64(2), int64(9), false)
	f.Add(uint64(1), int64(0), uint64(3), uint32(4), math.Copysign(0, -1), false, 0.0, 0.0, false, uint8(1), "kw", "text", uint64(1), int64(0), true)
	f.Add(uint64(1<<63), int64(-7), uint64(0), uint32(math.MaxUint32), 7.25, false, 0.0, 0.0, true, uint8(2), "", "", uint64(1), int64(math.MaxInt64), false)
	f.Add(uint64(9), int64(9), uint64(9), uint32(9), 0.0, true, 40.5, math.Copysign(0, -1), false, uint8(0), "kw", "no keywords", uint64(math.MaxUint64), int64(math.MinInt64), false)
	f.Add(uint64(9), int64(1e15), uint64(9), uint32(9), 0.0, true, 10.0, 20.0, false, uint8(255), "k", "many keywords", uint64(10), int64(1e15-300), false)
	f.Add(uint64(0), int64(1.7e15), uint64(9), uint32(9), 0.0, true, 10.0, 20.0, false, uint8(1), "k", "ID 0", uint64(1), int64(1.7e15), false)
	f.Fuzz(func(t *testing.T, id uint64, ts int64, user uint64, fol uint32, score float64, tsScore bool,
		lat, lon float64, geo bool, nkw uint8, kw, text string, prev uint64, prevTS int64, absolute bool) {
		if len(kw) > 1<<16-1 || len(text) > 1<<20 {
			t.Skip()
		}
		if tsScore {
			score = float64(ts)
		}
		var kws []string
		for i := 0; i < int(nkw); i++ {
			kws = append(kws, kw[:i%(len(kw)+1)])
		}
		in := FlushRecord{
			MB: &types.Microblog{
				ID: types.ID(id), Timestamp: types.Timestamp(ts),
				UserID: user, Followers: fol, Lat: lat, Lon: lon,
				HasGeo: geo, Keywords: kws, Text: text,
			},
			Score: score,
		}
		first := fr(prev, float64(prevTS), "p")
		first.MB.Timestamp = types.Timestamp(prevTS)
		var base pageBase
		buf := appendRecord(nil, first, &base)
		at := len(buf)
		if absolute {
			buf = appendRecord(buf, in, nil)
		} else {
			buf = appendRecord(buf, in, &base)
		}
		reach := id != 0 && (id >= prev) == (int64(id-prev) >= 0)
		if rel := buf[at]&flagRelative != 0; rel != (reach && !absolute) {
			t.Fatalf("ID %d after %d stored relative=%v", id, prev, rel)
		}
		c := pageCursor{q: buf}
		if _, _, err := c.next(); err != nil {
			t.Fatalf("decode the first record: %v", err)
		}
		out, n, err := c.next()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf)-at || len(c.q) != 0 {
			t.Fatalf("consumed %d of %d", n, len(buf)-at)
		}
		m := out.MB
		bits := math.Float64bits
		if m.ID != in.MB.ID || m.Timestamp != in.MB.Timestamp ||
			m.UserID != user || m.Followers != fol || m.HasGeo != geo ||
			bits(out.Score) != bits(score) || bits(m.Lat) != bits(lat) || bits(m.Lon) != bits(lon) ||
			len(m.Keywords) != len(kws) || m.Text != text {
			t.Fatalf("round trip mismatch: %+v score %v, want %+v score %v", m, out.Score, in.MB, score)
		}
		for i := range kws {
			if m.Keywords[i] != kws[i] {
				t.Fatalf("keyword %d = %q, want %q", i, m.Keywords[i], kws[i])
			}
		}
		if !bytes.Equal(reencode(out, pageBase{prev, prevTS}, buf[at]&flagRelative != 0), buf[at:]) {
			t.Fatal("re-encode mismatch")
		}
	})
}

// FuzzDecodeReferences feeds arbitrary payloads to the reference frame
// decoder: it must never panic, allocate no more than one reference per
// input byte — the result's exact length, counted first — and accept
// only the canonical encoding, so what it accepts re-encodes to the same
// bytes, ascending, every file below the frame's own.
func FuzzDecodeReferences(f *testing.F) {
	f.Add(appendReferencePayload(nil, []LogRef{{Seq: 1}, {Seq: 1, Ord: 5}, {Seq: 3, Ord: 2}}), uint32(4))
	f.Add(appendReferencePayload(nil, []LogRef{{Seq: 7, Ord: math.MaxUint32}}), uint32(8))
	f.Add([]byte{referenceMarker, 1, 1, 1, 0}, uint32(2))
	f.Add([]byte{referenceMarker, 1, 0x81, 0x00, 1, 0}, uint32(9)) // a varint not minimal
	f.Add([]byte{referenceMarker, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(9))
	f.Add([]byte{referenceMarker, 1, 1, 2, 4, 0}, uint32(9)) // an ordinal repeated
	f.Add([]byte{indexMarker}, uint32(9))
	f.Fuzz(func(t *testing.T, payload []byte, own uint32) {
		refs, ok := DecodeReferences(payload, own)
		if !ok {
			return
		}
		if len(refs) == 0 || len(refs) > len(payload) || cap(refs) != len(refs) {
			t.Fatalf("%d references in %d bytes, capacity %d", len(refs), len(payload), cap(refs))
		}
		for i, r := range refs {
			if r.Seq == 0 || r.Seq >= own {
				t.Fatalf("reference %+v in file %d", r, own)
			}
			if i > 0 && (r.Seq < refs[i-1].Seq || r.Seq == refs[i-1].Seq && r.Ord <= refs[i-1].Ord) {
				t.Fatalf("references out of order: %+v after %+v", r, refs[i-1])
			}
		}
		if again := appendReferencePayload(nil, refs); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x as %+v, which encodes as %x", payload, refs, again)
		}
	})
}

// FuzzDecodePage throws arbitrary bytes at the record file reader as a
// whole file — block or log file, v6 or v5 — page index and pages: it
// must never panic or over-read, and a file whose every page it accepts
// must re-encode, page by page and record by record in the coding each
// record was stored in, to the same bytes, with every record reading
// back by ordinal as the page decodes it.
func FuzzDecodePage(f *testing.F) {
	recs := []FlushRecord{fr(3, 3, "a", "b"), fr(2, 2, "a"), fr(1, 1, "c")}
	img, _ := encodeBlock(nil, "", recs)
	f.Add(img, false)
	var many []FlushRecord
	for i := uint64(1); i <= 120; i++ {
		r := fr(i, float64(121-i), "k")
		r.MB.Text = strings.Repeat("x", int(i))
		many = append(many, r)
	}
	img, _ = encodeBlock(nil, "", many)
	f.Add(img, false)
	// The same index with its last page past the end of any file.
	if b, err := readIndex(bytes.NewReader(img), int64(len(img)), "blk-00000001.kfs"); err == nil {
		hostile := append([]byte(nil), img...)
		last := b.end + PageHeaderSize + 1 + indexEntry*uint64(len(b.pages.Off)-1)
		binary.LittleEndian.PutUint64(hostile[last:], 1<<63)
		sealPage(hostile[b.end:])
		f.Add(hostile, false)
	}
	big := fr(9, 9, "big")
	big.MB.Text = strings.Repeat("y", PageSize+10)
	img, _ = encodeBlock(nil, "", []FlushRecord{big, fr(8, 8, "small")})
	f.Add(img, false)
	var x PageIndex
	log := AppendRecordPages(AppendLogHeader(nil), recs[:2], &x)
	log = AppendReferencePage(log, []LogRef{{Seq: 1}, {Seq: 4, Ord: 7}}, &x)
	log = AppendRecordPages(log, recs[2:], &x)
	f.Add(AppendPageIndex(log, &x), true)
	f.Add(AppendPageIndex(AppendLogHeader(nil), &PageIndex{}), true)
	x = PageIndex{}
	v5 := appendPagesV5(binary.LittleEndian.AppendUint16([]byte(blkMagic), recordVersionV5), many, &x)
	f.Add(AppendPageIndex(v5, &x), false)
	x = PageIndex{}
	mixed := AppendLogHeader(nil)
	mixed = append(mixed, 0, 0, 0, 0, 0, 0, 0, 0)
	mixed = append(mixed, mixedPayload(recs)...)
	sealPage(mixed[HeaderSize:])
	x.Add(HeaderSize, uint32(len(recs)))
	f.Add(AppendPageIndex(mixed, &x), true)
	f.Add(img[:len(img)-3], false)
	f.Fuzz(func(t *testing.T, img []byte, isLog bool) {
		name := "blk-00000001.kfs"
		if isLog {
			name = LogName(9)
		}
		b, err := readIndex(bytes.NewReader(img), int64(len(img)), name)
		if err != nil {
			return
		}
		b.f = nopCloser{bytes.NewReader(img)}
		out := append([]byte(nil), img[:HeaderSize]...)
		var x PageIndex
		for p := range b.pages.Off {
			at, end := b.pageSpan(p)
			first, last := b.pages.ordinals(p)
			payload, ok := checkedPayload(img[at:end])
			if !ok {
				return
			}
			start := len(out)
			if first == last {
				refs, ok := DecodeReferences(payload, 9)
				if !ok {
					return
				}
				out = AppendReferencePage(out, refs, &x)
				continue
			}
			recs, err := DecodePage(nil, payload)
			if err != nil || len(recs) != int(last-first) {
				return
			}
			out = append(out, 0, 0, 0, 0, 0, 0, 0, 0)
			c := pageCursor{q: payload}
			for i, fr := range recs {
				before, rel := c.pageBase, c.q[0]&flagRelative != 0
				if _, _, err := c.next(); err != nil {
					t.Fatalf("the page decodes, yet its record %d does not: %v", i, err)
				}
				out = append(out, reencode(fr, before, rel)...)
				got, err := b.readRecord(first + uint32(i))
				if err != nil || !bytes.Equal(EncodeRecord(nil, got), EncodeRecord(nil, fr)) {
					t.Fatalf("ordinal %d reads back %+v, %v; its page decodes %+v", first+uint32(i), got, err, fr)
				}
			}
			sealPage(out[start:])
			x.Add(uint64(start), uint32(len(recs)))
		}
		if err := b.scanRecords(func(uint32, FlushRecord) error { return nil }); err != nil {
			t.Fatalf("every page decodes, yet the scan fails: %v", err)
		}
		if out = AppendPageIndex(out, &x); !bytes.Equal(out, img) {
			t.Fatalf("accepted %x, which re-encodes as %x", img, out)
		}
	})
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }
