package winsys

import (
	"testing"

	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// opDuration runs a single op on a quiet NT 4.0 rig and returns its
// duration after one warm-up.
func opDuration(t *testing.T, p persona.P, fn func(tc *kernel.TC, w *WinSys)) simtime.Duration {
	t.Helper()
	d, _ := measure(t, p, 1, fn)
	return d
}

func TestOpCostOrdering(t *testing.T) {
	p := persona.NT40()
	mouse := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.MouseEvent(tc) })
	text := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.TextOut(tc, 1) })
	scroll := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.ScrollWindow(tc) })
	create := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.CreateWindow(tc) })
	if !(mouse < text && text < scroll && scroll < create) {
		t.Fatalf("cost ordering wrong: mouse %v text %v scroll %v create %v",
			mouse, text, scroll, create)
	}
	// Sanity bands.
	if mouse < 100*simtime.Microsecond || mouse > simtime.Millisecond {
		t.Fatalf("mouse event = %v, want sub-ms", mouse)
	}
	if create < 5*simtime.Millisecond || create > 30*simtime.Millisecond {
		t.Fatalf("create window = %v, want ≈10ms", create)
	}
}

func TestDrawFrameGrowsWithStep(t *testing.T) {
	p := persona.NT40()
	small := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.DrawFrame(tc, 1) })
	big := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.DrawFrame(tc, 22) })
	// 40k+25k vs 40k+550k cycles: ≈9x.
	if big < 5*small {
		t.Fatalf("frame cost should grow with the outline: step1 %v, step22 %v", small, big)
	}
}

func TestRepaintLinesScales(t *testing.T) {
	p := persona.NT40()
	five := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.RepaintLines(tc, 5) })
	twenty := opDuration(t, p, func(tc *kernel.TC, w *WinSys) { w.RepaintLines(tc, 20) })
	ratio := float64(twenty) / float64(five)
	if ratio < 3.4 || ratio > 4.6 {
		t.Fatalf("RepaintLines(20)/RepaintLines(5) = %.2f, want ≈4", ratio)
	}
}

func TestGlueSkippedWithoutBoundApp(t *testing.T) {
	// Without BindApp, ops still work (no glue compute).
	p := persona.NT40()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	var dur simtime.Duration
	k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		start := tc.Now()
		w.MouseEvent(tc)
		dur = tc.Now().Sub(start)
	})
	k.Run(simtime.Time(simtime.Second))
	if dur <= 0 {
		t.Fatalf("op without bound app did nothing")
	}
}

func TestW95SegloadsScaleWithOpSize(t *testing.T) {
	p := persona.W95()
	_, small := measure(t, p, 1, func(tc *kernel.TC, w *WinSys) { w.MouseEvent(tc) })
	_, big := measure(t, p, 1, func(tc *kernel.TC, w *WinSys) { w.CreateWindow(tc) })
	if small[6] == 0 || big[6] <= small[6] { // index 6 = SegmentLoads
		t.Fatalf("segment loads should scale with op size: %d vs %d", small[6], big[6])
	}
}

func TestBatchScaleOnlyWithQueuedInput(t *testing.T) {
	p := persona.NT40()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	w.BindApp(appPages)
	var aloneDur, queuedDur simtime.Duration
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		// Handle first message with nothing queued.
		tc.GetMessage()
		start := tc.Now()
		w.TextOut(tc, 1)
		aloneDur = tc.Now().Sub(start)
		// Handle second with a third already waiting.
		tc.GetMessage()
		start = tc.Now()
		w.TextOut(tc, 1)
		queuedDur = tc.Now().Sub(start)
		tc.GetMessage()
	})
	post := func(at int64) {
		k.At(simtime.Time(at)*simtime.Time(simtime.Millisecond), func(simtime.Time) {
			k.PostMessage(app, kernel.WMChar, 0)
		})
	}
	post(10)
	post(100)
	post(100) // delivered together: queued behind the second
	k.Run(simtime.Time(simtime.Second))
	if w.BatchedCalls() != 1 {
		t.Fatalf("batched calls = %d, want 1", w.BatchedCalls())
	}
	ratio := float64(queuedDur) / float64(aloneDur)
	if ratio < 0.6 || ratio > 0.9 {
		t.Fatalf("batched call ratio = %.2f, want ≈0.75", ratio)
	}
}
