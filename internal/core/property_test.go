package core

import (
	"testing"
	"testing/quick"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/rng"
	"latlab/internal/simtime"
)

// TestExtractionAccuracyProperty is the repository's strongest validation
// of the methodology: for randomized workloads (random per-event costs
// and random spacing wide enough to avoid queueing), the idle-loop
// extraction must match the kernel's ground truth busy time per event to
// within the handler/dispatch overhead plus sample-resolution slop.
func TestExtractionAccuracyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := kernel.New(quietConfig())
		defer k.Shutdown()
		pr := AttachProbe(k)
		il := recordingLoop(k)

		n := 4 + r.Intn(6)
		costs := make([]simtime.Duration, n)
		app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			for {
				m := tc.GetMessage()
				if m.Kind == kernel.WMQuit {
					return
				}
				tc.Compute(cpu.Segment{Name: "w",
					BaseCycles: int64(costs[m.Param] / 10)}) // cycles at 10ns each
			}
		})

		at := simtime.Time(20 * simtime.Millisecond)
		for i := 0; i < n; i++ {
			costs[i] = simtime.Duration(r.Intn(24)+1) * simtime.Millisecond
			i := i
			k.At(at, func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, int64(i)) })
			// Spacing always exceeds the largest possible cost.
			at = at.Add(simtime.Duration(r.Intn(30)+30) * simtime.Millisecond)
		}
		k.Run(at.Add(100 * simtime.Millisecond))

		events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
		if len(events) != n {
			return false
		}
		for i, e := range events {
			// Latency must cover the compute cost plus the keyboard
			// handler, and not exceed it by more than dispatch overhead.
			lo := costs[i]
			hi := costs[i] + simtime.FromMillis(0.3)
			if e.Latency < lo || e.Latency > hi {
				t.Logf("seed %d event %d: latency %v, cost %v", seed, i, e.Latency, costs[i])
				return false
			}
			if e.Gapped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractionTotalsProperty: with queueing allowed (tight spacing),
// per-event attribution still conserves total busy mass: the sum of
// extracted Busy equals the instrument's total stolen time minus
// background (clock) noise.
func TestExtractionTotalsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := kernel.New(quietConfig()) // no clock cost: stolen is all events
		defer k.Shutdown()
		pr := AttachProbe(k)
		il := recordingLoop(k)

		n := 5 + r.Intn(8)
		app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			for {
				m := tc.GetMessage()
				if m.Kind == kernel.WMQuit {
					return
				}
				tc.Compute(cpu.Segment{Name: "w",
					BaseCycles: int64(r.Intn(900_000) + 100_000)})
			}
		})
		at := simtime.Time(20 * simtime.Millisecond)
		for i := 0; i < n; i++ {
			k.At(at, func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) })
			at = at.Add(simtime.Duration(r.Intn(12)+1) * simtime.Millisecond) // may queue
		}
		k.Run(at.Add(200 * simtime.Millisecond))

		events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
		if len(events) != n {
			return false
		}
		var attributed simtime.Duration
		for _, e := range events {
			attributed += e.Busy
		}
		var stolen simtime.Duration
		for _, s := range il.Samples() {
			stolen += s.Stolen(NominalSample)
		}
		diff := attributed - stolen
		if diff < 0 {
			diff = -diff
		}
		// Tolerance: one sample of boundary slop.
		return diff <= simtime.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractionLatencyOrderingProperty: events are returned in input
// order with non-overlapping [HandleStart, End) spans.
func TestExtractionLatencyOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := kernel.New(quietConfig())
		defer k.Shutdown()
		pr := AttachProbe(k)
		il := recordingLoop(k)
		app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			for {
				if tc.GetMessage().Kind == kernel.WMQuit {
					return
				}
				tc.Compute(cpu.Segment{Name: "w", BaseCycles: int64(r.Intn(500_000) + 50_000)})
			}
		})
		at := simtime.Time(10 * simtime.Millisecond)
		n := 6 + r.Intn(6)
		for i := 0; i < n; i++ {
			k.At(at, func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) })
			at = at.Add(simtime.Duration(r.Intn(20)+1) * simtime.Millisecond)
		}
		k.Run(at.Add(100 * simtime.Millisecond))
		events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
		if len(events) != n {
			return false
		}
		for i := 1; i < len(events); i++ {
			if events[i].Enqueued < events[i-1].Enqueued {
				return false
			}
			if events[i].HandleStart < events[i-1].End.Add(-simtime.Millisecond) {
				// Handling starts can't precede the previous event's end
				// beyond sample slop (single-threaded app).
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
