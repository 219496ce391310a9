package core

import (
	"slices"
	"strings"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

// TestTraceBufferExhaustion: the paper's instrument runs "while
// (space_left_in_the_buffer)", so a run longer than its buffer loses
// its end. The simulated instrument folds each sample into busy spans
// as it records it and stores none, so it has no bound: an event far
// beyond the 100 samples a small buffer would have held keeps its exact
// latency, like one inside them.
func TestTraceBufferExhaustion(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	il := StartIdleLoop(k)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if tc.GetMessage().Kind == kernel.WMQuit {
				return
			}
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 300_000})
		}
	})
	// One event inside the first 100 samples, one far beyond them.
	k.At(simtime.Time(30*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMChar, 0)
	})
	k.At(simtime.Time(400*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMChar, 0)
	})
	k.Run(simtime.Time(600 * simtime.Millisecond))

	if il.Samples() != nil {
		t.Fatalf("instrument stored %d samples without its tap", len(il.Samples()))
	}
	events := il.Extract(pr.Msgs, ExtractOptions{Thread: app.ID()})
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	for i, e := range events {
		if e.Latency < simtime.FromMillis(3) || e.Latency > simtime.FromMillis(3.3) || e.Busy == 0 {
			t.Fatalf("event %d latency %v, busy %v, want ≈3ms of measured busy time", i, e.Latency, e.Busy)
		}
	}
}

// TestSchedulerLivelockGuard: an application that spins on instantaneous
// primitives without ever consuming simulated time is a modelling bug;
// the scheduler must detect it and fail loudly rather than hang the host.
func TestSchedulerLivelockGuard(t *testing.T) {
	k := kernel.New(quietConfig())
	// No Shutdown: the panic leaves the kernel mid-flight; the spinner's
	// coroutine is parked forever, which is acceptable for a test of a
	// fatal-diagnostic path. The guard fires as soon as the spinner is
	// scheduled — already inside Spawn.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("livelock guard did not fire")
		}
		if !strings.Contains(r.(string), "livelock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k.Spawn("spinner", 1, 8, func(tc *kernel.TC) {
		for {
			tc.PeekMessage() // never computes, never blocks
		}
	})
	k.Run(simtime.Time(simtime.Second))
}

// TestInstrumentBufferIsolation: the instrument's sample tap must not
// perturb the measured system — with it on or off, the workload runs
// the same and the instrument folds the same busy spans.
func TestInstrumentBufferIsolation(t *testing.T) {
	run := func(record bool) (simtime.Duration, []BusySpan) {
		k := kernel.New(quietConfig())
		defer k.Shutdown()
		il := StartIdleLoop(k)
		if record {
			il.Record()
		}
		var done simtime.Time
		app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			tc.GetMessage()
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 900_000})
			done = tc.Now()
		})
		k.At(simtime.Time(300*simtime.Millisecond), func(simtime.Time) {
			k.PostMessage(app, kernel.WMChar, 0)
		})
		k.Run(simtime.Time(500 * simtime.Millisecond))
		return simtime.Duration(done), il.Spans()
	}
	off, offSpans := run(false)
	on, onSpans := run(true)
	if off != on {
		t.Fatalf("workload timing depends on the sample tap: %v off, %v on", off, on)
	}
	if len(onSpans) == 0 || !slices.Equal(offSpans, onSpans) {
		t.Fatalf("busy spans depend on the sample tap:\noff %v\non  %v", offSpans, onSpans)
	}
}
