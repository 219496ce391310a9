// Package stats provides the summary statistics and histogram machinery
// used to analyze latency traces, mirroring the representations in the
// paper's Section 3.2: event-latency histograms, cumulative-latency
// curves, and interarrival summaries.
package stats

import (
	"fmt"
	"math"
	"sort"

	"latlab/internal/simtime"
)

// Summary holds the basic moments of a sample set.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
	Sum    float64
}

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	// Population standard deviation: the paper reports std dev over the
	// full set of trials, not a sampling estimate.
	s.StdDev = math.Sqrt(ss / float64(s.N))
	return s
}

// RelStdDev returns the standard deviation as a fraction of the mean
// (the "%-of-mean" form the paper uses, e.g. "under 2% of the mean").
// It returns 0 when the mean is 0.
func (s Summary) RelStdDev() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / math.Abs(s.Mean)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty set")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Histogram bins sample values. Bins are left-closed, right-open:
// [lo+i*width, lo+(i+1)*width). Values outside [lo, hi) land in the
// Under/Over counters so no sample is silently dropped.
type Histogram struct {
	Lo, Hi float64
	Width  float64
	Counts []int
	Under  int
	Over   int
	total  int
}

// NewHistogram creates a histogram over [lo, hi) with n equal bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram bounds [%v,%v) n=%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Width: (hi - lo) / float64(n), Counts: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.Width)
		if i >= len(h.Counts) { // float edge case at the upper bound
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// MaxCount returns the largest bin count (useful for scaling plots).
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// CumulativePoint is one point on a cumulative-latency curve.
type CumulativePoint struct {
	// Latency is the event latency in milliseconds; points are sorted by it.
	Latency float64
	// EventCount is the number of events with latency ≤ Latency.
	EventCount int
	// CumLatency is the summed latency (ms) of those events.
	CumLatency float64
}

// CumulativeCurve sorts latencies ascending and integrates them. This is
// the paper's "cumulative latency graph": X = latency, Y = cumulative
// latency; and the derived events-vs-cumulative-latency view (§3.2).
func CumulativeCurve(latencies []float64) []CumulativePoint {
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	pts := make([]CumulativePoint, len(sorted))
	var cum float64
	for i, l := range sorted {
		cum += l
		pts[i] = CumulativePoint{Latency: l, EventCount: i + 1, CumLatency: cum}
	}
	return pts
}

// FractionBelow returns the share of total cumulative latency contributed
// by events with latency < cutoff. Used for assertions such as "over 80%
// of the latency of Notepad is due to events under 10 ms" (§5.1).
func FractionBelow(latencies []float64, cutoff float64) float64 {
	var below, total float64
	for _, l := range latencies {
		total += l
		if l < cutoff {
			below += l
		}
	}
	if total == 0 {
		return 0
	}
	return below / total
}

// Interarrival summarizes the gaps between events above a latency
// threshold, reproducing the analysis in the paper's Table 2.
type Interarrival struct {
	ThresholdMs float64
	Count       int     // events above threshold
	MeanSec     float64 // mean gap between successive above-threshold events
	StdDevSec   float64
}

// InterarrivalAbove computes interarrival statistics for events whose
// latency exceeds thresholdMs. starts holds each event's start time;
// latencies its duration in ms; the two slices are parallel.
func InterarrivalAbove(starts []simtime.Time, latencies []float64, thresholdMs float64) Interarrival {
	if len(starts) != len(latencies) {
		panic("stats: starts and latencies length mismatch")
	}
	n := 0
	for _, l := range latencies {
		if l > thresholdMs {
			n++
		}
	}
	above := make([]simtime.Time, 0, n)
	for i, l := range latencies {
		if l > thresholdMs {
			above = append(above, starts[i])
		}
	}
	ia := Interarrival{ThresholdMs: thresholdMs, Count: len(above)}
	if len(above) < 2 {
		return ia
	}
	sort.Slice(above, func(i, j int) bool { return above[i] < above[j] })
	gaps := make([]float64, len(above)-1)
	for i := 1; i < len(above); i++ {
		gaps[i-1] = above[i].Sub(above[i-1]).Seconds()
	}
	s := Summarize(gaps)
	ia.MeanSec = s.Mean
	ia.StdDevSec = s.StdDev
	return ia
}
