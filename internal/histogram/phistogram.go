// Package histogram implements the two synopsis structures of
// Section 6 of the paper:
//
//   - the p-histogram, summarizing one tag's PathId-Frequency entries
//     into buckets of path ids sharing an average frequency
//     (Algorithm 1);
//   - the o-histogram, summarizing one tag's path-order table into
//     rectangular buckets over the sorted (path id × sibling tag) grid
//     (Algorithm 2).
//
// Both use the intra-bucket frequency variance
//
//	v_b = sqrt( Σ (f_i − avg)² / k )
//
// to bound data skew inside a bucket: construction never lets v_b
// exceed the caller-chosen threshold, so a threshold of 0 stores exact
// frequencies (the right-most data points of Figures 9–13).
package histogram

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"xpathest/internal/bitset"
	"xpathest/internal/guard"
	"xpathest/internal/stats"
)

// PBucket is one bucket of a p-histogram: a set of path ids and their
// average frequency.
type PBucket struct {
	Pids    []*bitset.Bitset
	AvgFreq float64
}

// PHistogram summarizes the PathId-Frequency entries of one tag.
type PHistogram struct {
	Tag     string
	Buckets []PBucket

	bucketOf map[*bitset.Bitset]int // interned pid -> bucket index
	order    []*bitset.Bitset
}

// variance computes the paper's intra-bucket frequency variance
// (a root-mean-square deviation) incrementally from the running sum,
// sum of squares and count.
func variance(sum, sumSq float64, k int) float64 {
	if k <= 1 {
		return 0
	}
	n := float64(k)
	avg := sum / n
	v := sumSq/n - avg*avg
	if v < 0 { // floating point guard
		v = 0
	}
	return math.Sqrt(v)
}

// BuildP runs Algorithm 1: sort the (pid, frequency) list by frequency,
// then repeatedly grow a bucket with the longest prefix whose variance
// stays within the threshold. The threshold must be non-negative.
func BuildP(tag string, entries []stats.PidFreq, threshold float64) *PHistogram {
	if threshold < 0 {
		//lint:ignore panicpolicy documented precondition on an in-process build parameter, validated at the root API by SummaryOptions; never reachable from untrusted input
		panic(fmt.Sprintf("histogram: negative variance threshold %v", threshold))
	}
	sorted := byFreq(entries)
	h := &PHistogram{Tag: tag, bucketOf: make(map[*bitset.Bitset]int, len(sorted))}
	i := 0
	for i < len(sorted) {
		var (
			sum, sumSq float64
			pids       []*bitset.Bitset
		)
		// Grow the bucket while the variance allows. The first element
		// always fits (variance of a singleton is 0).
		j := i
		for j < len(sorted) {
			f := sorted[j].Freq
			if v := variance(sum+f, sumSq+f*f, j-i+1); v > threshold {
				break
			}
			sum += f
			sumSq += f * f
			pids = append(pids, sorted[j].Pid)
			j++
		}
		b := PBucket{Pids: pids, AvgFreq: sum / float64(len(pids))}
		for _, p := range pids {
			h.bucketOf[p] = len(h.Buckets)
		}
		h.Buckets = append(h.Buckets, b)
		i = j
	}
	for _, e := range sorted {
		h.order = append(h.order, e.Pid)
	}
	return h
}

// byFreq returns a copy of entries sorted by frequency, ties broken by
// pid bit value, so the order does not depend on the input's.
func byFreq(entries []stats.PidFreq) []stats.PidFreq {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b stats.PidFreq) int {
		return cmp.Or(cmp.Compare(a.Freq, b.Freq), bitset.Compare(a.Pid, b.Pid))
	})
	return sorted
}

// BuildPEquiCount builds a p-histogram with numBuckets equal-count
// buckets over the frequency-sorted list, ignoring the intra-bucket
// variance entirely. It exists to ablate the paper's Section 6 design
// choice ("In order to reduce the effect of data skewness in the
// buckets, we use the intra-bucket frequency variance to control the
// histogram construction"): at matched memory, variance-bounded
// buckets should estimate skewed tags better.
func BuildPEquiCount(tag string, entries []stats.PidFreq, numBuckets int) *PHistogram {
	if numBuckets < 1 {
		//lint:ignore panicpolicy documented precondition on an in-process build parameter, validated at the root API by SummaryOptions; never reachable from untrusted input
		panic(fmt.Sprintf("histogram: %d buckets", numBuckets))
	}
	sorted := byFreq(entries)
	h := &PHistogram{Tag: tag, bucketOf: make(map[*bitset.Bitset]int, len(sorted))}
	if len(sorted) == 0 {
		return h
	}
	if numBuckets > len(sorted) {
		numBuckets = len(sorted)
	}
	per := (len(sorted) + numBuckets - 1) / numBuckets
	for i := 0; i < len(sorted); i += per {
		j := i + per
		if j > len(sorted) {
			j = len(sorted)
		}
		var sum float64
		var pids []*bitset.Bitset
		for _, e := range sorted[i:j] {
			sum += e.Freq
			pids = append(pids, e.Pid)
			h.bucketOf[e.Pid] = len(h.Buckets)
			h.order = append(h.order, e.Pid)
		}
		h.Buckets = append(h.Buckets, PBucket{Pids: pids, AvgFreq: sum / float64(j-i)})
	}
	return h
}

// BuildPSetEquiCount builds an equal-count p-histogram per tag with
// the same bucket count each tag's variance-bounded histogram in ref
// used, so both sets occupy identical memory under the cost model.
func BuildPSetEquiCount(ft *stats.FreqTable, numDistinctPids int, ref *PSet) *PSet {
	s := &PSet{
		Threshold:       -1, // marker: not variance-bounded
		byTag:           make(map[string]*PHistogram),
		numDistinctPids: numDistinctPids,
	}
	for _, tag := range ft.Tags() {
		n := 1
		if rh := ref.Histogram(tag); rh != nil {
			n = rh.NumBuckets()
		}
		s.byTag[tag] = BuildPEquiCount(tag, ft.Entries(tag), n)
	}
	return s
}

// RestoreP rebuilds a p-histogram from its buckets, as read back from
// a serialized summary. The pid order (frequency-sorted at build time)
// is the concatenation of the bucket pid lists, which is exactly how
// BuildP lays buckets out.
func RestoreP(tag string, buckets []PBucket) *PHistogram {
	h := &PHistogram{Tag: tag, Buckets: buckets, bucketOf: make(map[*bitset.Bitset]int)}
	for i, b := range buckets {
		for _, p := range b.Pids {
			h.bucketOf[p] = i
			h.order = append(h.order, p)
		}
	}
	return h
}

// RestorePSet rebuilds a PSet from restored histograms.
func RestorePSet(threshold float64, numDistinctPids int, hs []*PHistogram) *PSet {
	s := &PSet{
		Threshold:       threshold,
		byTag:           make(map[string]*PHistogram, len(hs)),
		numDistinctPids: numDistinctPids,
	}
	for _, h := range hs {
		s.byTag[h.Tag] = h
	}
	return s
}

// Histograms returns the per-tag histograms in sorted tag order, for
// serialization.
func (s *PSet) Histograms() []*PHistogram {
	out := make([]*PHistogram, 0, len(s.byTag))
	for _, tag := range s.Tags() {
		out = append(out, s.byTag[tag])
	}
	return out
}

// Freq returns the (approximate) frequency of a pid: the average of
// its bucket, or 0 when the pid never occurs with this tag. Buckets
// hold the labeling's interned instances and pid must be one.
func (h *PHistogram) Freq(pid *bitset.Bitset) float64 {
	if i, ok := h.bucketOf[pid]; ok {
		return h.Buckets[i].AvgFreq
	}
	return 0
}

// Entries reconstructs a PathId-Frequency list from the buckets, each
// pid carrying its bucket average. This is what the estimator's path
// join consumes; at threshold 0 it is exactly the input list.
func (h *PHistogram) Entries() []stats.PidFreq {
	out := make([]stats.PidFreq, 0, len(h.order))
	for _, pid := range h.order {
		out = append(out, stats.PidFreq{Pid: pid, Freq: h.Freq(pid)})
	}
	return out
}

// PidOrder returns the pids in the frequency-sorted order the buckets
// were built from. Algorithm 2 uses this as the column order of the
// o-histogram grid.
func (h *PHistogram) PidOrder() []*bitset.Bitset { return h.order }

// NumBuckets returns the bucket count.
func (h *PHistogram) NumBuckets() int { return len(h.Buckets) }

// CheckPVariance recomputes each bucket's variance against the source
// entries and returns the maximum. Tests use it to verify the
// construction invariant.
func CheckPVariance(h *PHistogram, entries []stats.PidFreq) float64 {
	freqOf := map[*bitset.Bitset]float64{}
	for _, e := range entries {
		freqOf[e.Pid] += e.Freq
	}
	worst := 0.0
	for _, b := range h.Buckets {
		var sum, sumSq float64
		for _, p := range b.Pids {
			f := freqOf[p]
			sum += f
			sumSq += f * f
		}
		if v := variance(sum, sumSq, len(b.Pids)); v > worst {
			worst = v
		}
	}
	return worst
}

// pidRefBytes is the per-reference cost of naming a path id inside a
// summary: path ids are stored once (in the path-id binary tree) and
// referenced by their compact integer, so a reference costs 2 bytes up
// to 65535 distinct ids and 4 beyond.
func pidRefBytes(numDistinctPids int) int {
	if numDistinctPids < 1<<16 {
		return 2
	}
	return 4
}

// pBucketOverheadBytes is the fixed cost of one p-histogram bucket:
// a 4-byte average frequency and a 2-byte pid count.
const pBucketOverheadBytes = 6

// SizeBytes estimates the serialized size of the histogram under the
// repository's documented cost model: every pid reference plus the
// fixed per-bucket overhead. numDistinctPids is the document-wide
// distinct pid count that determines reference width.
func (h *PHistogram) SizeBytes(numDistinctPids int) int {
	n := len(h.Buckets) * pBucketOverheadBytes
	ref := pidRefBytes(numDistinctPids)
	for _, b := range h.Buckets {
		n += len(b.Pids) * ref
	}
	return n
}

// PSet is the p-histogram of every tag of a document, built at one
// variance threshold.
type PSet struct {
	Threshold float64
	byTag     map[string]*PHistogram

	numDistinctPids int
}

// BuildPSet builds a p-histogram per tag from the exact frequency
// table.
func BuildPSet(ft *stats.FreqTable, numDistinctPids int, threshold float64) *PSet {
	s, _ := BuildPSetContext(nil, ft, numDistinctPids, threshold)
	return s
}

// BuildPSetContext is BuildPSet honoring cancellation at the per-tag
// loop boundary — the unit of work Algorithm 1 runs per iteration —
// with errors wrapping guard.ErrCanceled.
func BuildPSetContext(ctx context.Context, ft *stats.FreqTable, numDistinctPids int, threshold float64) (*PSet, error) {
	s := &PSet{
		Threshold:       threshold,
		byTag:           make(map[string]*PHistogram),
		numDistinctPids: numDistinctPids,
	}
	for _, tag := range ft.Tags() {
		if err := guard.CheckContext(ctx); err != nil {
			return nil, fmt.Errorf("histogram: build p-set: %w", err)
		}
		s.byTag[tag] = BuildP(tag, ft.Entries(tag), threshold)
	}
	return s, nil
}

// Histogram returns the p-histogram of a tag, or nil.
func (s *PSet) Histogram(tag string) *PHistogram { return s.byTag[tag] }

// Entries returns the (approximate) PathId-Frequency list of a tag, or
// nil when the tag does not occur.
func (s *PSet) Entries(tag string) []stats.PidFreq {
	h := s.byTag[tag]
	if h == nil {
		return nil
	}
	return h.Entries()
}

// Tags returns the summarized tags, sorted.
func (s *PSet) Tags() []string {
	out := make([]string, 0, len(s.byTag))
	for tag := range s.byTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// SizeBytes totals the per-tag histogram sizes plus a small tag
// directory — the p-histogram curve of Figure 9.
func (s *PSet) SizeBytes() int {
	n := 0
	for tag, h := range s.byTag {
		n += len(tag) + 2
		n += h.SizeBytes(s.numDistinctPids)
	}
	return n
}
