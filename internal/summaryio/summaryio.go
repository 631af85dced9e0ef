// Package summaryio serializes a built summary — encoding table,
// distinct path ids, p-histograms and o-histograms — into a compact,
// versioned, checksummed binary stream, and reads it back into an
// estimation-ready form that needs no access to the original document.
//
// This is what an estimation system deployed inside a query optimizer
// actually ships: the document stays in the store; only the synopsis
// travels. The format doubles as a validation of the paper's memory
// accounting — the stream's layout mirrors the cost models documented
// in the histogram and pidtree packages (pid references are compact
// integers into the shared path-id dictionary, bucket records carry
// the fields Section 6 describes).
//
// Layout (all integers little-endian):
//
//	magic "XPSUM" | u16 version
//	u32 #paths   | per path:  u16 len + bytes
//	u32 #pids    | per pid:   ceil(width/8) packed bytes (width = #paths)
//	f64 p-threshold
//	u32 #p-tags  | per tag: string, u32 #buckets,
//	                per bucket: f64 avg, u32 #pids, u32 pid-index each
//	f64 o-threshold
//	u32 #o-tags  | per tag: string, u32 #cols (u32 pid-index each),
//	                u32 #rows (u8 region + string sib tag),
//	                u32 #buckets (4×u32 coords, f64 avg)
//	u32 crc32(IEEE) of everything above
//
// Decode hardening: summary streams arrive from untrusted callers
// (uploads, replicated files), so every declared count is validated
// against a hard cap — and against the counts already decoded (pid
// references cannot outnumber the dictionary, o-buckets cannot
// outnumber grid cells) — *before* anything is allocated for it, and
// DecodeLimited additionally enforces a total byte budget checked
// before each read. A crafted header therefore cannot trigger a large
// allocation: memory use is bounded by bytes actually supplied.
// All decode failures wrap guard.ErrCorruptSummary (budget overruns
// wrap guard.ErrLimitExceeded) so servers can blame the right party.
package summaryio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/stats"
)

const (
	magic   = "XPSUM"
	version = 1

	// limits guard decoding of corrupt or hostile streams.
	maxPaths   = 1 << 24
	maxPids    = 1 << 26
	maxTags    = 1 << 20
	maxBuckets = 1 << 26
	maxStrLen  = 1 << 16
)

// Payload bundles everything a deserialized estimator needs.
type Payload struct {
	Table    *pathenc.Table
	Distinct []*bitset.Bitset
	P        *histogram.PSet
	O        *histogram.OSet
}

// Encode writes the summary stream. The pid dictionary is the
// labeling's distinct-pid list; every histogram pid must be one of its
// instances (guaranteed for histograms built from the same labeling,
// which hold its interned pids).
func Encode(w io.Writer, table *pathenc.Table, distinct []*bitset.Bitset, ps *histogram.PSet, os *histogram.OSet) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	e := &encoder{w: bw}

	e.raw([]byte(magic))
	e.u16(version)

	e.u32(uint32(table.NumPaths()))
	for i := 1; i <= table.NumPaths(); i++ {
		e.str(table.Path(i))
	}

	pidIdx := make(map[*bitset.Bitset]uint32, len(distinct))
	e.u32(uint32(len(distinct)))
	for i, p := range distinct {
		if p.Width() != table.NumPaths() {
			return fmt.Errorf("summaryio: pid width %d does not match %d paths: %w", p.Width(), table.NumPaths(), guard.ErrInvalidArgument)
		}
		pidIdx[p] = uint32(i)
		e.raw(p.Bytes())
	}
	pid := func(p *bitset.Bitset) error {
		i, ok := pidIdx[p]
		if !ok {
			return fmt.Errorf("summaryio: histogram pid %s is not an instance of the distinct dictionary: %w", p, guard.ErrInvalidArgument)
		}
		e.u32(i)
		return nil
	}

	e.f64(ps.Threshold)
	phs := ps.Histograms()
	e.u32(uint32(len(phs)))
	for _, h := range phs {
		e.str(h.Tag)
		e.u32(uint32(len(h.Buckets)))
		for _, b := range h.Buckets {
			e.f64(b.AvgFreq)
			e.u32(uint32(len(b.Pids)))
			for _, p := range b.Pids {
				if err := pid(p); err != nil {
					return err
				}
			}
		}
	}

	e.f64(os.Threshold)
	ohs := os.Histograms()
	e.u32(uint32(len(ohs)))
	for _, h := range ohs {
		e.str(h.Tag)
		e.u32(uint32(len(h.Cols)))
		for _, p := range h.Cols {
			if err := pid(p); err != nil {
				return err
			}
		}
		e.u32(uint32(len(h.Rows)))
		for _, r := range h.Rows {
			e.u8(uint8(r.Region))
			e.str(r.SibTag)
		}
		e.u32(uint32(len(h.Buckets)))
		for _, b := range h.Buckets {
			e.u32(uint32(b.Col1))
			e.u32(uint32(b.Row1))
			e.u32(uint32(b.Col2))
			e.u32(uint32(b.Row2))
			e.f64(b.Avg)
		}
	}
	if e.err != nil {
		return e.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailing checksum (not itself checksummed).
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// Decode reads a summary stream back with no total-size budget (the
// per-field caps still apply). Errors wrap guard.ErrCorruptSummary.
func Decode(r io.Reader) (*Payload, error) {
	return DecodeLimited(r, 0)
}

// DecodeLimited is Decode under a total byte budget (0 = unlimited):
// once the stream has declared or consumed more than maxBytes, it
// fails with an error wrapping guard.ErrLimitExceeded — checked before
// the corresponding allocation, never after.
func DecodeLimited(r io.Reader, maxBytes int64) (*Payload, error) {
	p, _, err := decodeCounted(r, maxBytes)
	return p, err
}

// DecodeBytes decodes a summary stream that must occupy data exactly:
// trailing bytes after the stream's own checksum are corruption, not
// padding. This is the whole-file contract of the durable store —
// Decode's stream semantics (stop after one summary, leave the rest)
// would silently accept a file with garbage appended.
func DecodeBytes(data []byte, maxBytes int64) (*Payload, error) {
	p, consumed, err := decodeCounted(bytes.NewReader(data), maxBytes)
	if err != nil {
		return nil, err
	}
	if rest := int64(len(data)) - consumed; rest != 0 {
		return nil, fmt.Errorf("summaryio: %d trailing bytes after the summary stream: %w", rest, guard.ErrCorruptSummary)
	}
	return p, nil
}

// decodeCounted runs the decoder and reports how many bytes of r the
// stream occupied (payload plus the 4-byte checksum).
func decodeCounted(r io.Reader, maxBytes int64) (*Payload, int64, error) {
	crc := crc32.NewIEEE()
	d := &decoder{r: bufio.NewReader(r), crc: crc, budget: maxBytes}
	p, err := decodePayload(d, crc)
	if err != nil {
		if errors.Is(err, guard.ErrLimitExceeded) || errors.Is(err, guard.ErrCorruptSummary) {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("%v: %w", err, guard.ErrCorruptSummary)
	}
	// d.consumed counts every byte read through the budget gate; the
	// trailing checksum is read past it, directly off the reader.
	return p, d.consumed + 4, nil
}

func decodePayload(d *decoder, crc hash.Hash32) (*Payload, error) {
	head := d.raw(len(magic))
	if d.err == nil && string(head) != magic {
		return nil, fmt.Errorf("summaryio: bad magic %q: %w", head, guard.ErrCorruptSummary)
	}
	if v := d.u16(); d.err == nil && v != version {
		return nil, fmt.Errorf("summaryio: unsupported version %d: %w", v, guard.ErrCorruptSummary)
	}

	nPaths := int(d.u32())
	if d.err == nil && (nPaths <= 0 || nPaths > maxPaths) {
		return nil, fmt.Errorf("summaryio: implausible path count %d: %w", nPaths, guard.ErrCorruptSummary)
	}
	paths := make([]string, 0, min(nPaths, 4096))
	for i := 0; i < nPaths && d.err == nil; i++ {
		paths = append(paths, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	table, err := pathenc.NewTable(paths)
	if err != nil {
		return nil, err
	}

	nPids := int(d.u32())
	if d.err == nil && (nPids < 1 || nPids > maxPids) {
		return nil, fmt.Errorf("summaryio: implausible pid count %d: %w", nPids, guard.ErrCorruptSummary)
	}
	// There are at most 2^width − 1 distinct nonzero bit sequences.
	if d.err == nil && nPaths < 31 && nPids > 1<<uint(nPaths)-1 {
		return nil, fmt.Errorf("summaryio: %d pids exceed the 2^%d-1 distinct sequences of the path width: %w", nPids, nPaths, guard.ErrCorruptSummary)
	}
	pidBytes := (nPaths + 7) / 8
	distinct := make([]*bitset.Bitset, 0, min(nPids, 65536))
	for i := 0; i < nPids && d.err == nil; i++ {
		b, err := bitset.FromBytes(nPaths, d.raw(pidBytes))
		if d.err == nil && err != nil {
			return nil, err
		}
		distinct = append(distinct, b)
	}
	pid := func() (*bitset.Bitset, error) {
		i := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if i < 0 || i >= len(distinct) {
			return nil, fmt.Errorf("summaryio: pid index %d out of range: %w", i, guard.ErrCorruptSummary)
		}
		return distinct[i], nil
	}

	pThreshold := d.f64()
	nPTags := int(d.u32())
	if d.err == nil && (nPTags < 0 || nPTags > maxTags) {
		return nil, fmt.Errorf("summaryio: implausible tag count %d: %w", nPTags, guard.ErrCorruptSummary)
	}
	var phs []*histogram.PHistogram
	for t := 0; t < nPTags && d.err == nil; t++ {
		tag := d.str()
		nb := int(d.u32())
		// A tag's buckets partition (a subset of) the pid dictionary, so
		// neither the bucket count nor the pid references across the
		// tag's buckets can exceed the dictionary size — checked before
		// any bucket storage is allocated.
		if d.err == nil && (nb < 0 || nb > maxBuckets || nb > nPids) {
			return nil, fmt.Errorf("summaryio: implausible bucket count %d for %d pids: %w", nb, nPids, guard.ErrCorruptSummary)
		}
		refsLeft := nPids
		buckets := make([]histogram.PBucket, 0, min(nb, 4096))
		for i := 0; i < nb && d.err == nil; i++ {
			b := histogram.PBucket{AvgFreq: d.f64()}
			np := int(d.u32())
			if d.err == nil && (np < 0 || np > refsLeft) {
				return nil, fmt.Errorf("summaryio: implausible bucket size %d (%d pid references left): %w", np, refsLeft, guard.ErrCorruptSummary)
			}
			refsLeft -= np
			for j := 0; j < np && d.err == nil; j++ {
				p, err := pid()
				if err != nil {
					return nil, err
				}
				b.Pids = append(b.Pids, p)
			}
			buckets = append(buckets, b)
		}
		if d.err == nil {
			phs = append(phs, histogram.RestoreP(tag, buckets))
		}
	}

	oThreshold := d.f64()
	nOTags := int(d.u32())
	if d.err == nil && (nOTags < 0 || nOTags > maxTags) {
		return nil, fmt.Errorf("summaryio: implausible tag count %d: %w", nOTags, guard.ErrCorruptSummary)
	}
	var ohs []*histogram.OHistogram
	for t := 0; t < nOTags && d.err == nil; t++ {
		tag := d.str()
		nc := int(d.u32())
		// Columns are distinct pids of the tag: bounded by the
		// dictionary, checked before the column slice grows.
		if d.err == nil && (nc < 0 || nc > nPids) {
			return nil, fmt.Errorf("summaryio: implausible column count %d for %d pids: %w", nc, nPids, guard.ErrCorruptSummary)
		}
		var cols []*bitset.Bitset
		for i := 0; i < nc && d.err == nil; i++ {
			p, err := pid()
			if err != nil {
				return nil, err
			}
			cols = append(cols, p)
		}
		nr := int(d.u32())
		if d.err == nil && (nr < 0 || nr > maxTags) {
			return nil, fmt.Errorf("summaryio: implausible row count %d: %w", nr, guard.ErrCorruptSummary)
		}
		var rows []histogram.RowKey
		for i := 0; i < nr && d.err == nil; i++ {
			region := stats.Region(d.u8())
			if d.err == nil && region != stats.Before && region != stats.After {
				return nil, fmt.Errorf("summaryio: bad region %d: %w", region, guard.ErrCorruptSummary)
			}
			rows = append(rows, histogram.RowKey{Region: region, SibTag: d.str()})
		}
		nb := int(d.u32())
		// Buckets are disjoint boxes tiling the nc×nr grid, so there can
		// be at most one per cell — checked before the bucket slice
		// grows.
		if d.err == nil && (nb < 0 || nb > maxBuckets || nb > nc*nr) {
			return nil, fmt.Errorf("summaryio: implausible bucket count %d for a %d×%d grid: %w", nb, nc, nr, guard.ErrCorruptSummary)
		}
		var buckets []histogram.OBucket
		for i := 0; i < nb && d.err == nil; i++ {
			b := histogram.OBucket{
				Col1: int(d.u32()), Row1: int(d.u32()),
				Col2: int(d.u32()), Row2: int(d.u32()),
				Avg: d.f64(),
			}
			if d.err == nil && (b.Col1 < 0 || b.Col2 >= nc || b.Row1 < 0 || b.Row2 >= nr || b.Col1 > b.Col2 || b.Row1 > b.Row2) {
				return nil, fmt.Errorf("summaryio: bucket box out of grid: %w", guard.ErrCorruptSummary)
			}
			buckets = append(buckets, b)
		}
		if d.err == nil {
			ohs = append(ohs, histogram.RestoreO(tag, cols, rows, buckets))
		}
	}
	if d.err != nil {
		return nil, d.err
	}

	// The trailing checksum is read outside the hashed region.
	d.crc = nil
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(d.r, sum[:]); err != nil {
		return nil, fmt.Errorf("summaryio: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("summaryio: checksum mismatch (stream corrupt): %w", guard.ErrCorruptSummary)
	}

	return &Payload{
		Table:    table,
		Distinct: distinct,
		P:        histogram.RestorePSet(pThreshold, len(distinct), phs),
		O:        histogram.RestoreOSet(oThreshold, len(distinct), ohs),
	}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type encoder struct {
	w   *bufio.Writer
	err error
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}
func (e *encoder) u8(v uint8) { e.raw([]byte{v}) }
func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	e.raw(b[:])
}
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.raw(b[:])
}
func (e *encoder) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.raw(b[:])
}
func (e *encoder) str(s string) {
	if len(s) > maxStrLen {
		if e.err == nil {
			e.err = fmt.Errorf("summaryio: string too long (%d bytes): %w", len(s), guard.ErrInvalidArgument)
		}
		return
	}
	e.u16(uint16(len(s)))
	e.raw([]byte(s))
}

type decoder struct {
	r        *bufio.Reader
	crc      hash.Hash32 // hashes exactly the consumed payload bytes
	budget   int64       // max total bytes to read; 0 = unlimited
	consumed int64
	err      error
}

func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	// The budget is charged before the buffer exists, so a declared
	// length can never cause an allocation past the budget.
	d.consumed += int64(n)
	if d.budget > 0 && d.consumed > d.budget {
		d.err = fmt.Errorf("summaryio: %w", guard.Exceeded("summary bytes", d.budget, d.consumed))
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("summaryio: truncated stream: %w", err)
		return nil
	}
	if d.crc != nil {
		d.crc.Write(b)
	}
	return b
}
func (d *decoder) u8() uint8 {
	b := d.raw(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}
func (d *decoder) u16() uint16 {
	b := d.raw(2)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (d *decoder) u32() uint32 {
	b := d.raw(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *decoder) f64() float64 {
	b := d.raw(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
func (d *decoder) str() string {
	n := int(d.u16())
	b := d.raw(n)
	if d.err != nil {
		return ""
	}
	return string(b)
}
