package core

import (
	"strings"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

// TestTraceBufferExhaustion: the paper's instrument runs "while
// (space_left_in_the_buffer)". When the buffer fills mid-run, the
// instrument stops sampling; extraction must degrade gracefully — events
// inside the sampled window keep exact latencies, later events lose
// their busy attribution rather than corrupting anything.
func TestTraceBufferExhaustion(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	il := StartIdleLoop(k, 100) // fills after ≈100 ms of idle
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if tc.GetMessage().Kind == kernel.WMQuit {
				return
			}
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 300_000})
		}
	})
	// One event inside the sampled window, one far beyond it.
	k.At(simtime.Time(30*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMChar, 0)
	})
	k.At(simtime.Time(400*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMChar, 0)
	})
	k.Run(simtime.Time(600 * simtime.Millisecond))

	if !il.Full() {
		t.Fatalf("buffer should have filled")
	}
	if last := il.Samples()[len(il.Samples())-1].Done; last > simtime.Time(200*simtime.Millisecond) {
		t.Fatalf("sampling should have stopped early, last sample at %v", last)
	}

	events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2 anchors regardless of trace truncation", len(events))
	}
	if events[0].Latency < simtime.FromMillis(3) || events[0].Latency > simtime.FromMillis(3.3) {
		t.Fatalf("in-window event latency = %v, want ≈3ms", events[0].Latency)
	}
	if events[1].Busy != 0 {
		t.Fatalf("post-truncation event should have no attributed busy time, got %v", events[1].Busy)
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

// TestInstrumentBufferIsolation: filling the instrument's buffer must
// not perturb the measured system — the workload continues unaffected.
func TestInstrumentBufferIsolation(t *testing.T) {
	run := func(bufCap int) simtime.Duration {
		k := kernel.New(quietConfig())
		defer k.Shutdown()
		StartIdleLoop(k, bufCap)
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
		return simtime.Duration(done)
	}
	small, big := run(50), run(50_000)
	if small != big {
		t.Fatalf("workload timing depends on instrument buffer: %v vs %v", small, big)
	}
}
