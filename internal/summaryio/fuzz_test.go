package summaryio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xpathest/internal/bitset"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
	"xpathest/internal/xmltree"
)

// FuzzDecode checks that the summary decoder never panics or
// over-allocates on arbitrary input; only the genuine stream (seeded
// below) may decode successfully.
func FuzzDecode(f *testing.F) {
	// Seed with a real stream plus mutations.
	b := xmltree.NewBuilder()
	b.Open("r")
	b.Open("a").Leaf("b", "").Leaf("c", "").Close()
	b.Open("a").Leaf("b", "").Close()
	b.Close()
	tbs := stats.Collect(b.Document(), nil)
	n := tbs.Labeling.NumDistinct()
	ps := histogram.BuildPSet(tbs.Freq, n, 0)
	os := histogram.BuildOSet(tbs.Order, ps, n, 0)
	var buf bytes.Buffer
	if err := Encode(&buf, tbs.Labeling.Table, tbs.Labeling.Distinct(), ps, os); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A well-formed stream whose dictionary lists its first pid twice,
	// a copy ahead of the instance the histograms reference. The
	// document gains a third path, so the copy stays under the 2^3-1
	// pid bound and the stream decodes; loading must reject it when it
	// interns the dictionary (below, and in the root package).
	db := xmltree.NewBuilder()
	db.Open("r")
	db.Open("a").Leaf("b", "").Leaf("c", "").Close()
	db.Leaf("d", "")
	db.Close()
	dtbs := stats.Collect(db.Document(), nil)
	dn := dtbs.Labeling.NumDistinct()
	dps := histogram.BuildPSet(dtbs.Freq, dn, 0)
	dos := histogram.BuildOSet(dtbs.Order, dps, dn, 0)
	distinct := dtbs.Labeling.Distinct()
	var dup bytes.Buffer
	if err := Encode(&dup, dtbs.Labeling.Table, append([]*bitset.Bitset{distinct[0].Clone()}, distinct...), dps, dos); err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(dup.Bytes())); err != nil {
		f.Fatalf("repeated-pid seed does not decode: %v", err)
	}
	f.Add(dup.Bytes())
	f.Add([]byte("XPSUM"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	// Length-field mutations of the genuine stream: every u32 count a
	// hostile encoder controls, forced to extreme values, so the fuzzer
	// starts from streams that are valid except for one declared count.
	mutate := func(off int, val uint32) []byte {
		m := bytes.Clone(buf.Bytes())
		if off+4 <= len(m) {
			binary.LittleEndian.PutUint32(m[off:], val)
		}
		return m
	}
	// u32 #paths sits right after the 5-byte magic + u16 version.
	const pathCountOff = 7
	for _, v := range []uint32{0, 1, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF} {
		f.Add(mutate(pathCountOff, v))
	}
	// Every other aligned u32 in the stream, maxed and zeroed: this
	// covers the pid count, bucket counts, bucket sizes, column/row
	// counts and box coordinates without hardcoding their offsets.
	for off := pathCountOff + 4; off+4 <= buf.Len(); off += 4 {
		f.Add(mutate(off, 0xFFFFFFFF))
		f.Add(mutate(off, 0))
	}
	// Truncations at structure boundaries.
	for _, n := range []int{5, 7, 11, buf.Len() / 2, buf.Len() - 4, buf.Len() - 1} {
		if n >= 0 && n <= buf.Len() {
			f.Add(bytes.Clone(buf.Bytes()[:n]))
		}
	}

	// Storage-trailer seeds: the sealed genuine file, a truncated
	// trailer, a flipped CRC32C bit, flipped payload under an intact
	// trailer, and trailing garbage after the trailer — the torn-write
	// shapes the durable store must reject before decoding.
	sealed := Seal(buf.Bytes())
	f.Add(bytes.Clone(sealed))
	f.Add(bytes.Clone(sealed[:len(sealed)-1]))
	f.Add(bytes.Clone(sealed[:len(sealed)-TrailerSize/2]))
	flipCRC := bytes.Clone(sealed)
	flipCRC[len(flipCRC)-TrailerSize+8] ^= 0x01
	f.Add(flipCRC)
	flipBody := bytes.Clone(sealed)
	flipBody[len(flipBody)/2] ^= 0x10
	f.Add(flipBody)
	f.Add(append(bytes.Clone(sealed), 'j', 'u', 'n', 'k'))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Mirror the store's read path: strip and verify a storage
		// trailer when one is present, then decode. Unseal must never
		// panic, and a stream it rejects is never decoded.
		if HasTrailer(data) {
			payload, err := Unseal(data)
			if err != nil {
				return
			}
			data = payload
		}
		payload, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must yield a coherent payload.
		if payload.Table == nil || payload.P == nil || payload.O == nil {
			t.Fatal("successful decode with nil components")
		}
		if payload.Table.NumPaths() == 0 {
			t.Fatal("decoded table with no paths")
		}
		// Loading interns the dictionary and rejects one that lists a
		// pid twice. Any other must leave every histogram pid an
		// interned instance, the only kind pointer-keyed lookups find.
		lab := pathenc.EstimationLabeling(payload.Table, payload.Distinct)
		if lab.NumDistinct() < len(payload.Distinct) {
			return
		}
		interned := make(map[*bitset.Bitset]bool, lab.NumDistinct())
		for _, p := range lab.Distinct() {
			interned[p] = true
		}
		for _, h := range payload.P.Histograms() {
			for _, b := range h.Buckets {
				for _, p := range b.Pids {
					if !interned[p] {
						t.Fatalf("p-histogram %s holds pid %s that is not interned", h.Tag, p)
					}
				}
			}
		}
		for _, h := range payload.O.Histograms() {
			for _, p := range h.Cols {
				if !interned[p] {
					t.Fatalf("o-histogram %s holds pid %s that is not interned", h.Tag, p)
				}
			}
		}
	})
}
