package stats

import (
	"math"
	"testing"
	"testing/quick"

	"latlab/internal/simtime"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Fatalf("basic fields wrong: %+v", s)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	if !almost(s.StdDev, 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2 (population)", s.StdDev)
	}
	if !almost(s.RelStdDev(), 0.4, 1e-12) {
		t.Fatalf("rel stddev = %v, want 0.4", s.RelStdDev())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.RelStdDev() != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	// Interpolated.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5) // bins of width 2
	for _, x := range []float64{-1, 0, 1.9, 2, 9.999, 10, 50} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Fatalf("bin1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.999
		t.Fatalf("bin4 = %d, want 1", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d, want 7", h.Total())
	}
	if h.MaxCount() != 2 {
		t.Fatalf("max count = %d", h.MaxCount())
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

// Property: every added sample is accounted for exactly once.
func TestHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(0, 100, 10)
		for _, x := range xs {
			h.Add(x)
		}
		n := h.Under + h.Over
		for _, c := range h.Counts {
			n += c
		}
		return n == len(xs) && h.Total() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCumulativeCurve(t *testing.T) {
	pts := CumulativeCurve([]float64{5, 1, 3})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Latency != 1 || pts[1].Latency != 3 || pts[2].Latency != 5 {
		t.Fatalf("not sorted: %+v", pts)
	}
	if pts[2].CumLatency != 9 || pts[2].EventCount != 3 {
		t.Fatalf("final point wrong: %+v", pts[2])
	}
	if pts[1].CumLatency != 4 {
		t.Fatalf("middle cumulative = %v, want 4", pts[1].CumLatency)
	}
}

// Property: the cumulative curve is monotonic in both axes and its final
// value equals the sum of inputs.
func TestCumulativeCurveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			xs[i] = float64(r)
			sum += xs[i]
		}
		pts := CumulativeCurve(xs)
		if len(pts) != len(xs) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Latency < pts[i-1].Latency || pts[i].CumLatency < pts[i-1].CumLatency {
				return false
			}
		}
		return len(pts) == 0 || math.Abs(pts[len(pts)-1].CumLatency-sum) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	lat := []float64{1, 1, 1, 1, 6} // total 10, below-5 sum 4
	if got := FractionBelow(lat, 5); got != 0.4 {
		t.Fatalf("FractionBelow = %v, want 0.4", got)
	}
	if got := FractionBelow(nil, 5); got != 0 {
		t.Fatalf("empty FractionBelow = %v, want 0", got)
	}
}

func TestInterarrivalAbove(t *testing.T) {
	// Three above-threshold events at t = 0s, 2s, 6s → gaps 2s, 4s.
	starts := []simtime.Time{
		0,
		simtime.Time(2 * simtime.Second),
		simtime.Time(3 * simtime.Second),
		simtime.Time(6 * simtime.Second),
	}
	lat := []float64{200, 150, 50, 300} // threshold 100 excludes the 50ms event
	ia := InterarrivalAbove(starts, lat, 100)
	if ia.Count != 3 {
		t.Fatalf("count = %d, want 3", ia.Count)
	}
	if !almost(ia.MeanSec, 3, 1e-9) {
		t.Fatalf("mean gap = %v, want 3", ia.MeanSec)
	}
	if !almost(ia.StdDevSec, 1, 1e-9) {
		t.Fatalf("std gap = %v, want 1", ia.StdDevSec)
	}
}

func TestInterarrivalFewEvents(t *testing.T) {
	ia := InterarrivalAbove([]simtime.Time{0}, []float64{500}, 100)
	if ia.Count != 1 || ia.MeanSec != 0 {
		t.Fatalf("single event interarrival: %+v", ia)
	}
}

func TestInterarrivalMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	InterarrivalAbove([]simtime.Time{0}, nil, 1)
}

func TestHistogramAddAllocFree(t *testing.T) {
	// Bins are allocated once in NewHistogram; recording a sample — in
	// range, under, or over — must never allocate.
	h := NewHistogram(0, 100, 50)
	xs := []float64{-1, 0, 3.7, 99.999, 100, 1e9}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		h.Add(xs[i%len(xs)])
		i++
	}); avg != 0 {
		t.Fatalf("Histogram.Add allocates %.1f/op, want 0", avg)
	}
}
