package viz

import (
	"errors"
	"testing"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// failWriter fails after n successful writes, exercising error paths.
type failWriter struct{ n int }

var errSink = errors.New("sink failed")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

func TestRenderersPropagateWriteErrors(t *testing.T) {
	profile := []core.ProfilePoint{{T: 0, Util: 0.5}, {T: at(10), Util: 1}}
	events := []core.Event{{Enqueued: 0, Latency: ms(5)}, {Enqueued: at(100), Latency: ms(500)}}
	hist := stats.NewHistogram(0, 10, 5)
	hist.Add(-1)
	hist.Add(5)
	hist.Add(99)
	curve := stats.CumulativeCurve([]float64{1, 5, 20})
	counters := []core.CounterMeasurement{
		{Label: "a", Cycles: 10, Events: map[cpu.EventKind]int64{cpu.ITLBMisses: 5}},
	}

	renderers := map[string]func(w *failWriter) error{
		"profile": func(w *failWriter) error {
			return Profile(w, "t", profile, 20, 4)
		},
		"profile-empty": func(w *failWriter) error {
			return Profile(w, "t", nil, 20, 4)
		},
		"timeseries": func(w *failWriter) error {
			return TimeSeries(w, "t", events, 100, 20, 4)
		},
		"timeseries-empty": func(w *failWriter) error {
			return TimeSeries(w, "t", nil, 100, 20, 4)
		},
		"histogram": func(w *failWriter) error {
			return Histogram(w, "t", hist, 10)
		},
		"curve": func(w *failWriter) error {
			return CumulativeCurve(w, "t", curve, simtime.Second, 20, 4)
		},
		"curve-empty": func(w *failWriter) error {
			return CumulativeCurve(w, "t", nil, simtime.Second, 20, 4)
		},
		"by-events": func(w *failWriter) error {
			return CumulativeByEvents(w, "t", curve, 20, 4)
		},
		"by-events-empty": func(w *failWriter) error {
			return CumulativeByEvents(w, "t", nil, 20, 4)
		},
		"counters": func(w *failWriter) error {
			return CounterBars(w, "t", counters, []cpu.EventKind{cpu.ITLBMisses}, 10)
		},
		"events-csv": func(w *failWriter) error {
			return EventsCSV(w, events)
		},
	}
	for name, render := range renderers {
		// Unbounded writer: must succeed.
		if err := render(&failWriter{n: 1 << 30}); err != nil {
			t.Fatalf("%s with working writer: %v", name, err)
		}
		// Fail at every prefix length until it succeeds: every write
		// error must surface, never be swallowed.
		for n := 0; n < 64; n++ {
			err := render(&failWriter{n: n})
			if err == nil {
				break
			}
			if err != errSink {
				t.Fatalf("%s: unexpected error %v", name, err)
			}
			if n == 63 {
				t.Fatalf("%s: still failing after 64 writes", name)
			}
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var w failWriter
	w.n = 1 << 30
	h := stats.NewHistogram(0, 10, 5)
	if err := Histogram(&w, "t", h, 10); err != nil {
		t.Fatal(err)
	}
}
