package histogram

import (
	"context"
	"fmt"
	"sort"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/stats"
)

// RowKey identifies one row of the path-order grid: a sibling tag in
// one of the two regions. Rows are laid out region-major — all
// "+element" rows first (sibling tags in alphabetical order), then all
// "element+" rows — matching the stacked presentation of Figure 2(b).
type RowKey struct {
	Region stats.Region
	SibTag string
}

// OBucket is one bucket of an o-histogram: an inclusive bounding box
// over the sorted grid plus the average frequency of every cell in the
// box (empty cells count as 0), the (x.start, y.start, x.end, y.end,
// frequency) tuple of Section 6.
type OBucket struct {
	Col1, Row1 int
	Col2, Row2 int
	Avg        float64
}

// OHistogram summarizes the path-order table of one tag.
type OHistogram struct {
	Tag     string
	Cols    []*bitset.Bitset // column pids, in the tag's p-histogram order
	Rows    []RowKey
	Buckets []OBucket

	colOf      map[*bitset.Bitset]int // interned pid -> column
	rowIdx     map[RowKey]int
	cellBucket map[cell]int
}

type cell struct{ col, row int }

// BuildO runs Algorithm 2 over one tag's path-order table.
//
// The grid is sorted first: columns are the tag's path ids in the
// order generated by its p-histogram (pidOrder; any table pid missing
// from it is appended in bit-sequence order), rows are sibling tags in
// alphabetical order within each region. Non-empty cells are then
// scanned row-wise; each uncovered one is extended rightwards along
// its row (stopping at an empty cell, a cell inside an earlier bucket,
// or a variance violation) and the resulting run is extended to
// following rows (stopping at an all-empty row segment, a covered
// cell, or a variance violation). Empty cells swallowed by a box
// participate in its average as zeros.
func BuildO(table *stats.OrderTable, pidOrder []*bitset.Bitset, threshold float64) *OHistogram {
	if threshold < 0 {
		//lint:ignore panicpolicy documented precondition on an in-process build parameter, validated at the root API by SummaryOptions; never reachable from untrusted input
		panic(fmt.Sprintf("histogram: negative variance threshold %v", threshold))
	}
	h := &OHistogram{
		Tag:        table.Tag,
		colOf:      make(map[*bitset.Bitset]int),
		rowIdx:     make(map[RowKey]int),
		cellBucket: make(map[cell]int),
	}

	// Column order: p-histogram order restricted to the table's pids,
	// then stragglers. A table pid waits in colOf at -1 until placed.
	pids := table.Pids()
	for _, p := range pids {
		h.colOf[p] = -1
	}
	place := func(p *bitset.Bitset) {
		if c, ok := h.colOf[p]; ok && c < 0 {
			h.colOf[p] = len(h.Cols)
			h.Cols = append(h.Cols, p)
		}
	}
	for _, p := range pidOrder {
		place(p)
	}
	for _, p := range pids {
		place(p)
	}

	sibs := table.SibTags()
	for _, region := range []stats.Region{stats.Before, stats.After} {
		for _, tag := range sibs {
			k := RowKey{Region: region, SibTag: tag}
			h.rowIdx[k] = len(h.Rows)
			h.Rows = append(h.Rows, k)
		}
	}

	// Dense value accessor over the sparse table.
	val := func(c, r int) float64 {
		k := h.Rows[r]
		return table.Get(k.Region, h.Cols[c], k.SibTag)
	}

	nc, nr := len(h.Cols), len(h.Rows)
	covered := func(c, r int) bool {
		_, ok := h.cellBucket[cell{c, r}]
		return ok
	}

	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			if val(c, r) == 0 || covered(c, r) {
				continue
			}
			// Step 1: extend the cell to a run of cells along the row.
			var sum, sumSq float64
			k := 0
			add := func(f float64) {
				sum += f
				sumSq += f * f
				k++
			}
			add(val(c, r))
			c2 := c
			for c2+1 < nc {
				f := val(c2+1, r)
				if f == 0 || covered(c2+1, r) {
					break
				}
				if variance(sum+f, sumSq+f*f, k+1) > threshold {
					break
				}
				add(f)
				c2++
			}
			// Step 2: extend the run to a box over following rows.
			r2 := r
			for r2+1 < nr {
				rowSum, rowSumSq := 0.0, 0.0
				empty, blocked := true, false
				for cc := c; cc <= c2; cc++ {
					f := val(cc, r2+1)
					if f != 0 {
						empty = false
					}
					if covered(cc, r2+1) {
						blocked = true
						break
					}
					rowSum += f
					rowSumSq += f * f
				}
				if empty || blocked {
					break
				}
				if variance(sum+rowSum, sumSq+rowSumSq, k+(c2-c+1)) > threshold {
					break
				}
				sum += rowSum
				sumSq += rowSumSq
				k += c2 - c + 1
				r2++
			}
			idx := len(h.Buckets)
			h.Buckets = append(h.Buckets, OBucket{
				Col1: c, Row1: r, Col2: c2, Row2: r2,
				Avg: sum / float64(k),
			})
			for rr := r; rr <= r2; rr++ {
				for cc := c; cc <= c2; cc++ {
					h.cellBucket[cell{cc, rr}] = idx
				}
			}
		}
	}
	return h
}

// RestoreO rebuilds an o-histogram from its serialized parts: the
// column pids, the row keys and the bucket list.
func RestoreO(tag string, cols []*bitset.Bitset, rows []RowKey, buckets []OBucket) *OHistogram {
	h := &OHistogram{
		Tag:        tag,
		Cols:       cols,
		Rows:       rows,
		Buckets:    buckets,
		colOf:      make(map[*bitset.Bitset]int, len(cols)),
		rowIdx:     make(map[RowKey]int, len(rows)),
		cellBucket: make(map[cell]int),
	}
	for i, p := range cols {
		h.colOf[p] = i
	}
	for i, k := range rows {
		h.rowIdx[k] = i
	}
	for bi, b := range buckets {
		for r := b.Row1; r <= b.Row2; r++ {
			for c := b.Col1; c <= b.Col2; c++ {
				h.cellBucket[cell{c, r}] = bi
			}
		}
	}
	return h
}

// RestoreOSet rebuilds an OSet from restored histograms.
func RestoreOSet(threshold float64, numDistinctPids int, hs []*OHistogram) *OSet {
	s := &OSet{
		Threshold:       threshold,
		byTag:           make(map[string]*OHistogram, len(hs)),
		numDistinctPids: numDistinctPids,
	}
	for _, h := range hs {
		s.byTag[h.Tag] = h
	}
	return s
}

// Histograms returns the per-tag histograms in sorted tag order, for
// serialization.
func (s *OSet) Histograms() []*OHistogram {
	out := make([]*OHistogram, 0, len(s.byTag))
	for _, tag := range s.Tags() {
		out = append(out, s.byTag[tag])
	}
	return out
}

// Get returns the (approximate) g(pid, sibTag) of the given region:
// the average of the covering bucket, or 0 when the cell lies outside
// every bucket (in particular when the pid or tag never co-occur).
// Columns hold the labeling's interned instances and pid must be one.
func (h *OHistogram) Get(region stats.Region, pid *bitset.Bitset, sibTag string) float64 {
	c, ok := h.colOf[pid]
	if !ok {
		return 0
	}
	r, ok := h.rowIdx[RowKey{Region: region, SibTag: sibTag}]
	if !ok {
		return 0
	}
	if i, ok := h.cellBucket[cell{c, r}]; ok {
		return h.Buckets[i].Avg
	}
	return 0
}

// NumBuckets returns the bucket count.
func (h *OHistogram) NumBuckets() int { return len(h.Buckets) }

// oBucketBytes is the serialized cost of one o-histogram bucket: four
// 2-byte grid coordinates plus a 4-byte average.
const oBucketBytes = 12

// SizeBytes estimates the serialized size of the histogram: the bucket
// list plus the column directory (one pid reference per column; the row
// directory is implied by the document's global tag dictionary).
func (h *OHistogram) SizeBytes(numDistinctPids int) int {
	return len(h.Buckets)*oBucketBytes + len(h.Cols)*pidRefBytes(numDistinctPids)
}

// CheckOVariance recomputes every bucket's variance against the source
// table (empty cells as zeros) and returns the maximum; tests verify it
// never exceeds the build threshold.
func CheckOVariance(h *OHistogram, table *stats.OrderTable) float64 {
	worst := 0.0
	for _, b := range h.Buckets {
		var sum, sumSq float64
		k := 0
		for r := b.Row1; r <= b.Row2; r++ {
			for c := b.Col1; c <= b.Col2; c++ {
				f := table.Get(h.Rows[r].Region, h.Cols[c], h.Rows[r].SibTag)
				sum += f
				sumSq += f * f
				k++
			}
		}
		if v := variance(sum, sumSq, k); v > worst {
			worst = v
		}
	}
	return worst
}

// OSet is the o-histogram of every tag of a document at one variance
// threshold.
type OSet struct {
	Threshold float64
	byTag     map[string]*OHistogram

	numDistinctPids int
}

// BuildOSet builds one o-histogram per tag that has order information.
// Column order comes from the tag's p-histogram in ps (tags without a
// p-histogram fall back to bit-sequence order).
func BuildOSet(ot *stats.OrderTables, ps *PSet, numDistinctPids int, threshold float64) *OSet {
	s, _ := BuildOSetContext(nil, ot, ps, numDistinctPids, threshold)
	return s
}

// BuildOSetContext is BuildOSet honoring cancellation at the per-tag
// loop boundary — the unit of work Algorithm 2 runs per iteration —
// with errors wrapping guard.ErrCanceled.
func BuildOSetContext(ctx context.Context, ot *stats.OrderTables, ps *PSet, numDistinctPids int, threshold float64) (*OSet, error) {
	s := &OSet{
		Threshold:       threshold,
		byTag:           make(map[string]*OHistogram),
		numDistinctPids: numDistinctPids,
	}
	for _, tag := range ot.Tags() {
		if err := guard.CheckContext(ctx); err != nil {
			return nil, fmt.Errorf("histogram: build o-set: %w", err)
		}
		var order []*bitset.Bitset
		if ps != nil {
			if ph := ps.Histogram(tag); ph != nil {
				order = ph.PidOrder()
			}
		}
		s.byTag[tag] = BuildO(ot.Table(tag), order, threshold)
	}
	return s, nil
}

// Histogram returns the o-histogram of a tag, or nil.
func (s *OSet) Histogram(tag string) *OHistogram { return s.byTag[tag] }

// Get returns the (approximate) order count g(pid, sibTag) for tag in
// the given region, 0 when the tag has no order table.
func (s *OSet) Get(tag string, region stats.Region, pid *bitset.Bitset, sibTag string) float64 {
	h := s.byTag[tag]
	if h == nil {
		return 0
	}
	return h.Get(region, pid, sibTag)
}

// Tags returns the summarized tags, sorted.
func (s *OSet) Tags() []string {
	out := make([]string, 0, len(s.byTag))
	for tag := range s.byTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// SizeBytes totals per-tag histogram sizes plus a tag directory — the
// o-histogram curve of Figure 9.
func (s *OSet) SizeBytes() int {
	n := 0
	for tag, h := range s.byTag {
		n += len(tag) + 2
		n += h.SizeBytes(s.numDistinctPids)
	}
	return n
}
