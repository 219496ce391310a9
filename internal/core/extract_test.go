package core

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

// echoRig builds a quiet kernel with an idle loop, a probe, and an echo
// app whose per-event cost is fixed; it returns everything tests need.
type echoRig struct {
	k   *kernel.Kernel
	il  *IdleLoop
	pr  *Probe
	app *kernel.Thread
}

func newEchoRig(t *testing.T, workMs float64, queueSyncMs float64) *echoRig {
	t.Helper()
	k := kernel.New(quietConfig())
	pr := AttachProbe(k)
	il := recordingLoop(k)
	work := cpu.Segment{Name: "echo", BaseCycles: int64(workMs * 100_000)}
	qs := cpu.Segment{Name: "qs", BaseCycles: int64(queueSyncMs * 100_000)}
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			switch m.Kind {
			case kernel.WMQuit:
				return
			case kernel.WMQueueSync:
				tc.Compute(qs)
			default:
				tc.Compute(work)
			}
		}
	})
	return &echoRig{k: k, il: il, pr: pr, app: app}
}

func (r *echoRig) extract(opts ExtractOptions) []Event {
	opts.Thread = r.app.ID()
	return Extract(r.il.Samples(), r.pr.Msgs, opts)
}

func TestExtractSingleKeystroke(t *testing.T) {
	r := newEchoRig(t, 9.76, 0)
	defer r.k.Shutdown()
	r.k.At(simtime.Time(50*simtime.Millisecond), func(simtime.Time) {
		r.k.KeyboardInterrupt(r.app, kernel.WMChar, 'x')
	})
	r.k.Run(simtime.Time(200 * simtime.Millisecond))

	events := r.extract(ExtractOptions{})
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Kind != kernel.WMChar {
		t.Fatalf("kind = %v", e.Kind)
	}
	if e.Enqueued != simtime.Time(50*simtime.Millisecond) {
		t.Fatalf("enqueued = %v", e.Enqueued)
	}
	// Latency = keyboard handler (2.5k cycles quiet default... zeroed? no:
	// quietConfig keeps device handlers) + app compute. It must cover the
	// 9.76 ms compute and the interrupt handling the conventional method
	// misses, within sub-sample accuracy.
	want := simtime.FromMillis(9.76)
	if e.Latency < want || e.Latency > want+simtime.FromMillis(0.2) {
		t.Fatalf("latency = %v, want ≈%v (+handler)", e.Latency, want)
	}
	if e.Gapped {
		t.Fatalf("contiguous event marked gapped")
	}
	if e.HandleStart <= e.Enqueued {
		t.Fatalf("handle start %v should follow enqueue %v (interrupt+dispatch)", e.HandleStart, e.Enqueued)
	}
	if e.End <= e.HandleStart {
		t.Fatalf("end %v should follow handle start %v", e.End, e.HandleStart)
	}
}

func TestExtractCapturesSystemTimeConventionalMisses(t *testing.T) {
	// The Fig. 1 point: latency measured from the hardware event exceeds
	// the span the application itself can observe (HandleStart → End).
	cfg := quietConfig()
	cfg.KeyboardInterrupt = cpu.Segment{Name: "kbd", BaseCycles: 100_000} // 1 ms handler
	k := kernel.New(cfg)
	defer k.Shutdown()
	pr := AttachProbe(k)
	il := recordingLoop(k)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			if tc.GetMessage().Kind == kernel.WMQuit {
				return
			}
			tc.Compute(cpu.Segment{Name: "w", BaseCycles: 500_000})
		}
	})
	k.At(simtime.Time(20*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMChar, 0)
	})
	k.Run(simtime.Time(100 * simtime.Millisecond))
	events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	conventional := e.End.Sub(e.HandleStart)
	if e.Latency <= conventional {
		t.Fatalf("idle-loop latency %v must exceed conventional %v (interrupt+dispatch time)",
			e.Latency, conventional)
	}
	if gap := e.Latency - conventional; gap < simtime.FromMillis(0.9) {
		t.Fatalf("missed system time = %v, want ≈1ms handler", gap)
	}
}

func TestExtractMultipleEventsMatchGroundTruth(t *testing.T) {
	r := newEchoRig(t, 3, 0)
	defer r.k.Shutdown()
	for i := int64(0); i < 10; i++ {
		at := simtime.Time(20+i*50) * simtime.Time(simtime.Millisecond)
		r.k.At(at, func(simtime.Time) { r.k.KeyboardInterrupt(r.app, kernel.WMChar, 0) })
	}
	r.k.Run(simtime.Time(simtime.Second))
	events := r.extract(ExtractOptions{})
	if len(events) != 10 {
		t.Fatalf("events = %d, want 10", len(events))
	}
	for i, e := range events {
		if e.Latency < simtime.FromMillis(3) || e.Latency > simtime.FromMillis(3.2) {
			t.Fatalf("event %d latency = %v, want ≈3ms", i, e.Latency)
		}
	}
}

func TestExtractQueuedInputLatencyIncludesWait(t *testing.T) {
	// Two keystrokes 1 ms apart with 5 ms handling each: the second waits
	// in the queue, so its latency ≈ 9 ms while its busy time ≈ 5 ms.
	r := newEchoRig(t, 5, 0)
	defer r.k.Shutdown()
	r.k.At(simtime.Time(20*simtime.Millisecond), func(simtime.Time) {
		r.k.KeyboardInterrupt(r.app, kernel.WMChar, 1)
	})
	r.k.At(simtime.Time(21*simtime.Millisecond), func(simtime.Time) {
		r.k.KeyboardInterrupt(r.app, kernel.WMChar, 2)
	})
	r.k.Run(simtime.Time(200 * simtime.Millisecond))
	events := r.extract(ExtractOptions{})
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	first, second := events[0], events[1]
	if first.Latency < simtime.FromMillis(5) || first.Latency > simtime.FromMillis(5.3) {
		t.Fatalf("first latency = %v", first.Latency)
	}
	if second.Latency < simtime.FromMillis(8.5) || second.Latency > simtime.FromMillis(9.5) {
		t.Fatalf("second latency = %v, want ≈9ms (queue wait included)", second.Latency)
	}
	if second.Busy > simtime.FromMillis(5.5) {
		t.Fatalf("second busy = %v, want ≈5ms", second.Busy)
	}
}

func TestExtractStripsQueueSync(t *testing.T) {
	// With Test-style input, WM_QUEUESYNC follows each keystroke; its
	// processing must be removable (paper §5.1).
	r := newEchoRig(t, 3, 4) // 3 ms real work, 4 ms WM_QUEUESYNC cost
	defer r.k.Shutdown()
	for i := int64(0); i < 5; i++ {
		at := simtime.Time(20+i*60) * simtime.Time(simtime.Millisecond)
		r.k.At(at, func(simtime.Time) {
			r.k.DeviceInterrupt(r.k.Config().KeyboardInterrupt, r.app,
				kernel.Msg{Kind: kernel.WMChar}, kernel.Msg{Kind: kernel.WMQueueSync})
		})
	}
	r.k.Run(simtime.Time(simtime.Second))

	raw := r.extract(ExtractOptions{})
	stripped := r.extract(ExtractOptions{StripQueueSync: true})
	if len(raw) != 5 || len(stripped) != 5 {
		t.Fatalf("events = %d/%d", len(raw), len(stripped))
	}
	for i := range raw {
		if raw[i].Latency < simtime.FromMillis(6.9) {
			t.Fatalf("raw latency %d = %v, want ≈7ms (3+4)", i, raw[i].Latency)
		}
		if stripped[i].Latency > simtime.FromMillis(3.4) || stripped[i].Latency < simtime.FromMillis(2.9) {
			t.Fatalf("stripped latency %d = %v, want ≈3ms", i, stripped[i].Latency)
		}
		if stripped[i].StrippedSync < simtime.FromMillis(3.8) {
			t.Fatalf("stripped amount %d = %v, want ≈4ms", i, stripped[i].StrippedSync)
		}
	}
}

func TestExtractGappedAnimationEvent(t *testing.T) {
	// A paced animation: the app handles one command with bursts
	// separated by tick-aligned sleeps. The extractor must merge it into
	// one event whose latency is the wall-clock span.
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	pr := AttachProbe(k)
	il := recordingLoop(k)
	app := k.Spawn("shell", 1, 8, func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			for i := 0; i < 8; i++ {
				tc.Compute(cpu.Segment{Name: "frame", BaseCycles: 200_000}) // 2 ms
				tc.Sleep(simtime.Nanosecond)                                // next tick
			}
		}
	})
	k.At(simtime.Time(25*simtime.Millisecond), func(simtime.Time) {
		k.KeyboardInterrupt(app, kernel.WMSysCommand, 1)
	})
	k.Run(simtime.Time(500 * simtime.Millisecond))
	events := Extract(il.Samples(), pr.Msgs, ExtractOptions{Thread: app.ID()})
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 merged animation event", len(events))
	}
	e := events[0]
	if !e.Gapped {
		t.Fatalf("animation event not marked gapped")
	}
	// 8 frames paced at 10 ms ticks ≈ 80 ms wall clock, ~16 ms busy.
	if e.Latency < simtime.FromMillis(65) || e.Latency > simtime.FromMillis(95) {
		t.Fatalf("animation latency = %v, want ≈80ms span", e.Latency)
	}
	if e.Busy < simtime.FromMillis(15) || e.Busy > simtime.FromMillis(18) {
		t.Fatalf("animation busy = %v, want ≈16ms", e.Busy)
	}
}

func TestExtractEmptyInputs(t *testing.T) {
	if got := Extract(nil, nil, ExtractOptions{}); got != nil {
		t.Fatalf("empty extraction → %v", got)
	}
}

func TestFilterAndAccessors(t *testing.T) {
	events := []Event{
		{Latency: simtime.FromMillis(10), Enqueued: 5},
		{Latency: simtime.FromMillis(60), Enqueued: 7},
	}
	if got := FilterLatencyAbove(events, simtime.FromMillis(50)); len(got) != 1 || got[0].Enqueued != 7 {
		t.Fatalf("filter wrong: %v", got)
	}
	if ls := Latencies(events); ls[0] != 10 || ls[1] != 60 {
		t.Fatalf("latencies wrong: %v", ls)
	}
	if ss := Starts(events); ss[0] != 5 || ss[1] != 7 {
		t.Fatalf("starts wrong: %v", ss)
	}
}
