package core

import (
	"math"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

func eventsFromMs(latMs []float64, spacing simtime.Duration) []Event {
	evs := make([]Event, len(latMs))
	for i, l := range latMs {
		evs[i] = Event{
			Kind:     kernel.WMChar,
			Enqueued: simtime.Time(simtime.Duration(i) * spacing),
			Latency:  simtime.FromMillis(l),
		}
	}
	return evs
}

func TestReportBasics(t *testing.T) {
	r := NewReport(eventsFromMs([]float64{2, 2, 2, 2, 30}, simtime.Second), 10*simtime.Second)
	if got := r.TotalLatency(); got != simtime.FromMillis(38) {
		t.Fatalf("total latency = %v", got)
	}
	if s := r.Summary(); s.N != 5 || s.Max != 30 {
		t.Fatalf("summary = %+v", s)
	}
	if got := r.CountAbove(10); got != 1 {
		t.Fatalf("count above = %d", got)
	}
	// 8/38 ≈ 21% of latency comes from events under 10 ms.
	if f := r.FractionBelow(10); math.Abs(f-8.0/38) > 1e-9 {
		t.Fatalf("fraction below = %v", f)
	}
	h := r.Histogram(0, 40, 4)
	if h.Counts[0] != 4 || h.Counts[3] != 1 {
		t.Fatalf("histogram = %+v", h.Counts)
	}
	curve := r.CumulativeCurve()
	if len(curve) != 5 || curve[4].CumLatency != 38 {
		t.Fatalf("curve tail = %+v", curve[len(curve)-1])
	}
	if r.Elapsed != 10*simtime.Second {
		t.Fatalf("elapsed = %v", r.Elapsed)
	}
}

func TestReportInterarrival(t *testing.T) {
	// Events every second; every 3rd is long. Above-threshold gaps = 3s.
	var lats []float64
	for i := 0; i < 9; i++ {
		if i%3 == 0 {
			lats = append(lats, 200)
		} else {
			lats = append(lats, 10)
		}
	}
	r := NewReport(eventsFromMs(lats, simtime.Second), 9*simtime.Second)
	ia := r.Interarrival(100)
	if ia.Count != 3 {
		t.Fatalf("count = %d", ia.Count)
	}
	if math.Abs(ia.MeanSec-3) > 1e-9 || ia.StdDevSec > 1e-9 {
		t.Fatalf("interarrival = %+v", ia)
	}
}

func TestIrritation(t *testing.T) {
	lats := []float64{50, 150, 2100}
	// Above 100 ms: (150-100) + (2100-100) = 2050 ms = 2.05 s.
	if got := Irritation(lats, PerceptionThresholdMs); math.Abs(got-2.05) > 1e-9 {
		t.Fatalf("irritation = %v", got)
	}
	if got := Irritation(lats, IrritationThresholdMs); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("irritation@2s = %v", got)
	}
	if Irritation(nil, 100) != 0 {
		t.Fatalf("empty irritation should be 0")
	}
}

func TestMeasureCountersPairwise(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	seg := cpu.Segment{Name: "op", BaseCycles: 50_000,
		CodePages: []uint64{1, 2}, DataPages: []uint64{10, 11, 12},
		Instructions: 30_000, SegmentLoads: 7}
	reps := 0
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if m := tc.GetMessage(); m.Kind == kernel.WMQuit {
				return
			}
			tc.Compute(seg)
		}
	})
	run := func() {
		reps++
		k.PostMessage(app, kernel.WMCommand, 0)
		k.RunFor(10 * simtime.Millisecond)
	}
	kinds := []cpu.EventKind{cpu.Instructions, cpu.ITLBMisses, cpu.SegmentLoads}
	m := MeasureCounters(k, "op", kinds, run)
	if reps != 2 {
		t.Fatalf("repetitions = %d, want 2 (pairs of counters)", reps)
	}
	if m.Events[cpu.Instructions] != 30_000 {
		t.Fatalf("instructions = %d", m.Events[cpu.Instructions])
	}
	if m.Events[cpu.SegmentLoads] != 7 {
		t.Fatalf("segment loads = %d", m.Events[cpu.SegmentLoads])
	}
	// Cycles from the first repetition include the op plus dispatch.
	if lm := k.CPU().Freq.DurationOf(m.Cycles).Milliseconds(); lm < 0.5 || lm > 11 {
		t.Fatalf("latency = %vms", lm)
	}
	if m.Label != "op" {
		t.Fatalf("label = %q", m.Label)
	}
}

func TestTLBAttribution(t *testing.T) {
	slow := CounterMeasurement{Cycles: 1_000_000, Events: map[cpu.EventKind]int64{
		cpu.ITLBMisses: 8000, cpu.DTLBMisses: 6000}}
	fast := CounterMeasurement{Cycles: 800_000, Events: map[cpu.EventKind]int64{
		cpu.ITLBMisses: 1000, cpu.DTLBMisses: 3000}}
	extra, frac := TLBAttribution(slow, fast, 20)
	if extra != 10_000 {
		t.Fatalf("extra misses = %d", extra)
	}
	if math.Abs(frac-1.0) > 1e-9 { // 10k*20 = 200k = the whole diff
		t.Fatalf("fraction = %v", frac)
	}
	if _, f := TLBAttribution(fast, slow, 20); f != 0 {
		t.Fatalf("non-positive diff should yield 0 fraction")
	}
}
