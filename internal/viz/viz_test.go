package viz

import (
	"strings"
	"testing"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

func ms(f float64) simtime.Duration { return simtime.FromMillis(f) }
func at(f float64) simtime.Time     { return simtime.Time(simtime.FromMillis(f)) }

func TestProfileRendering(t *testing.T) {
	pts := []core.ProfilePoint{
		{T: at(0), Util: 0},
		{T: at(10), Util: 1},
		{T: at(20), Util: 0.5},
		{T: at(30), Util: 0},
	}
	var sb strings.Builder
	if err := Profile(&sb, "idle profile", pts, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "idle profile") || !strings.Contains(out, "#") {
		t.Fatalf("profile output missing content:\n%s", out)
	}
	if !strings.Contains(out, "100%") || !strings.Contains(out, "0%") {
		t.Fatalf("profile output missing axis labels:\n%s", out)
	}
	var empty strings.Builder
	if err := Profile(&empty, "x", nil, 10, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no samples") {
		t.Fatalf("empty profile should say so")
	}
}

func TestTimeSeriesRendering(t *testing.T) {
	events := []core.Event{
		{Enqueued: at(0), Latency: ms(5)},
		{Enqueued: at(1000), Latency: ms(500)},
		{Enqueued: at(2000), Latency: ms(50)},
	}
	var sb strings.Builder
	if err := TimeSeries(&sb, "trace", events, 100, 60, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "|") {
		t.Fatalf("time series missing bars:\n%s", out)
	}
	if !strings.Contains(out, "100ms") {
		t.Fatalf("threshold label missing:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("threshold line missing")
	}
}

func TestHistogramRendering(t *testing.T) {
	h := stats.NewHistogram(0, 100, 10)
	for i := 0; i < 1000; i++ {
		h.Add(5)
	}
	h.Add(95)
	h.Add(-1)
	h.Add(200)
	var sb strings.Builder
	if err := Histogram(&sb, "latency histogram", h, 30); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1000") || !strings.Contains(out, "*") {
		t.Fatalf("histogram missing bars:\n%s", out)
	}
	if !strings.Contains(out, "<0.0ms") || !strings.Contains(out, ">100.0ms") {
		t.Fatalf("histogram missing under/over rows:\n%s", out)
	}
	// Log scale: the 1000-count bar must be < 1000/1 times the 1-count bar.
	lines := strings.Split(out, "\n")
	var big, small int
	for _, l := range lines {
		if strings.Contains(l, "1000 ") {
			big = strings.Count(l, "*")
		}
		if strings.Contains(l, "90.0-100.0") {
			small = strings.Count(l, "*")
		}
	}
	if big == 0 || small == 0 || big > small*15 {
		t.Fatalf("log scaling looks wrong: big=%d small=%d", big, small)
	}
}

func TestCumulativeCurveRendering(t *testing.T) {
	pts := stats.CumulativeCurve([]float64{1, 2, 3, 500})
	var sb strings.Builder
	if err := CumulativeCurve(&sb, "cumulative", pts, 10*simtime.Second, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "[elapsed 10.0s]") {
		t.Fatalf("elapsed bracket missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("curve missing points")
	}
}

func TestCounterBarsRendering(t *testing.T) {
	ms := []core.CounterMeasurement{
		{Label: "nt351", Cycles: 2_000_000, Events: map[cpu.EventKind]int64{cpu.ITLBMisses: 5000}},
		{Label: "nt40", Cycles: 1_000_000, Events: map[cpu.EventKind]int64{cpu.ITLBMisses: 1000}},
	}
	var sb strings.Builder
	if err := CounterBars(&sb, "page down", ms, []cpu.EventKind{cpu.ITLBMisses}, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "nt351") || !strings.Contains(out, "itlb_misses") {
		t.Fatalf("counter bars missing rows:\n%s", out)
	}
	// nt351 bar should be longer than nt40's in both blocks.
	lines := strings.Split(out, "\n")
	counts := map[string]int{}
	for _, l := range lines {
		if strings.Contains(l, "nt351") && strings.Contains(l, "5000") {
			counts["slow"] = strings.Count(l, "#")
		}
		if strings.Contains(l, "nt40") && strings.Contains(l, "1000 ") {
			counts["fast"] = strings.Count(l, "#")
		}
	}
	if counts["slow"] <= counts["fast"] {
		t.Fatalf("bar lengths wrong: %+v", counts)
	}
}

func TestCSVWriters(t *testing.T) {
	var sb strings.Builder
	err := EventsCSV(&sb, []core.Event{{Enqueued: at(1), Latency: ms(2), Busy: ms(1.5)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "enqueued_ms,") || !strings.Contains(sb.String(), "2.000000") {
		t.Fatalf("events csv wrong: %s", sb.String())
	}
}

func TestSortedByLatency(t *testing.T) {
	evs := []core.Event{{Latency: ms(1)}, {Latency: ms(9)}, {Latency: ms(5)}}
	sorted := SortedByLatency(evs)
	if sorted[0].Latency != ms(9) || sorted[2].Latency != ms(1) {
		t.Fatalf("sort wrong: %+v", sorted)
	}
	if evs[0].Latency != ms(1) {
		t.Fatalf("input mutated")
	}
}

func TestCumulativeByEventsRendering(t *testing.T) {
	pts := stats.CumulativeCurve([]float64{2, 2, 2, 30})
	var sb strings.Builder
	if err := CumulativeByEvents(&sb, "by events", pts, 30, 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "4 events (sorted by duration)") {
		t.Fatalf("axis label missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("points missing")
	}
	var empty strings.Builder
	if err := CumulativeByEvents(&empty, "x", nil, 10, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no events") {
		t.Fatalf("empty case should say so")
	}
}
