package winsys

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

var appPages = []uint64{300, 301, 302, 303, 304, 305}

// measure runs fn on an app thread under persona p and returns its
// duration and the CPU counter deltas.
func measure(t *testing.T, p persona.P, warmups int, fn func(tc *kernel.TC, w *WinSys)) (simtime.Duration, [cpu.NumEventKinds]int64) {
	t.Helper()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	w.BindApp(appPages)
	var dur simtime.Duration
	var before, after [cpu.NumEventKinds]int64
	k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for i := 0; i < warmups; i++ {
			fn(tc, w)
		}
		before = k.CPU().Snapshot()
		start := tc.Now()
		fn(tc, w)
		dur = tc.Now().Sub(start)
		after = k.CPU().Snapshot()
	})
	k.Run(simtime.Time(30 * simtime.Second))
	var delta [cpu.NumEventKinds]int64
	for i := range delta {
		delta[i] = after[i] - before[i]
	}
	return dur, delta
}

func TestArchCrossingBehaviour(t *testing.T) {
	textOut := func(tc *kernel.TC, w *WinSys) { w.TextOut(tc, 1) }

	_, d351 := measure(t, persona.NT351(), 2, textOut)
	_, d40 := measure(t, persona.NT40(), 2, textOut)
	_, d95 := measure(t, persona.W95(), 2, textOut)

	if d351[cpu.DomainCrossings] != 2 {
		t.Fatalf("NT 3.51 crossings = %d, want 2 per call", d351[cpu.DomainCrossings])
	}
	if d40[cpu.DomainCrossings] != 0 || d95[cpu.DomainCrossings] != 0 {
		t.Fatalf("NT 4.0 / W95 must not cross domains: %d/%d",
			d40[cpu.DomainCrossings], d95[cpu.DomainCrossings])
	}
	// Crossings flush TLBs: NT 3.51 refills on a warm repeat, NT 4.0 is
	// mostly resident.
	tlb := func(d [cpu.NumEventKinds]int64) int64 { return d[cpu.ITLBMisses] + d[cpu.DTLBMisses] }
	if tlb(d351) <= tlb(d40) {
		t.Fatalf("warm TLB misses: NT3.51 %d should exceed NT4.0 %d", tlb(d351), tlb(d40))
	}
	// Only Windows 95 shows the 16-bit signature.
	if d95[cpu.SegmentLoads] == 0 || d95[cpu.UnalignedAccesses] == 0 {
		t.Fatalf("W95 missing 16-bit events")
	}
	if d40[cpu.SegmentLoads] != 0 || d351[cpu.SegmentLoads] != 0 {
		t.Fatalf("NT personas should not load segment registers")
	}
}

func TestWarmLatencyOrdering(t *testing.T) {
	// Paper Figs. 9/10: NT 4.0 fastest, then W95, then NT 3.51 for the
	// warm page-down-like composite (chart + lines).
	pageDown := func(tc *kernel.TC, w *WinSys) {
		w.RepaintLines(tc, 20)
		w.DrawChart(tc, 200)
	}
	l351, _ := measure(t, persona.NT351(), 3, pageDown)
	l40, _ := measure(t, persona.NT40(), 3, pageDown)
	l95, _ := measure(t, persona.W95(), 3, pageDown)
	if !(l40 < l95 && l95 < l351) {
		t.Fatalf("warm ordering want NT40 < W95 < NT351, got %v / %v / %v", l40, l95, l351)
	}
}

func TestW95TLBExcess(t *testing.T) {
	// The wider 16-bit data window must produce clearly more TLB misses
	// than NT 4.0 on the same warm operation (paper: +93%).
	pageDown := func(tc *kernel.TC, w *WinSys) {
		w.RepaintLines(tc, 20)
		w.DrawChart(tc, 200)
	}
	_, d40 := measure(t, persona.NT40(), 3, pageDown)
	_, d95 := measure(t, persona.W95(), 3, pageDown)
	m40 := d40[cpu.ITLBMisses] + d40[cpu.DTLBMisses]
	m95 := d95[cpu.ITLBMisses] + d95[cpu.DTLBMisses]
	if m40 == 0 {
		t.Fatalf("NT 4.0 should still have streaming TLB misses")
	}
	ratio := float64(m95) / float64(m40)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("W95/NT40 TLB-miss ratio = %.2f, want ≈1.93", ratio)
	}
}

func TestStreamingWindowKeepsMissing(t *testing.T) {
	// Redraw-scale ops must not fully warm up: their data cycles a window
	// larger than the TLB.
	p := persona.NT40()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	w.BindApp(appPages)
	var missDeltas []int64
	k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for i := 0; i < 5; i++ {
			before := k.CPU().Count(cpu.DTLBMisses)
			w.RepaintLines(tc, 10)
			missDeltas = append(missDeltas, k.CPU().Count(cpu.DTLBMisses)-before)
		}
	})
	k.Run(simtime.Time(10 * simtime.Second))
	if len(missDeltas) != 5 {
		t.Fatalf("runs = %d", len(missDeltas))
	}
	last := missDeltas[4]
	if last < 50 {
		t.Fatalf("steady-state repaint DTLB misses = %d, want persistent streaming misses", last)
	}
}

func TestTextOutScalesWithChars(t *testing.T) {
	one, _ := measure(t, persona.NT40(), 1, func(tc *kernel.TC, w *WinSys) { w.TextOut(tc, 1) })
	four, _ := measure(t, persona.NT40(), 1, func(tc *kernel.TC, w *WinSys) { w.TextOut(tc, 4) })
	if four < 3*one || four > 5*one {
		t.Fatalf("TextOut(4)=%v vs TextOut(1)=%v, want ≈4x", four, one)
	}
}

func TestMaximizeAnimationShape(t *testing.T) {
	// Fig. 4: animation frames land on 10 ms clock-tick boundaries, grow
	// in cost, and are followed by a long redraw burst.
	p := persona.NT40()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	w.BindApp(appPages)
	var total simtime.Duration
	k.Spawn("shell", 1, 8, func(tc *kernel.TC) {
		start := tc.Now()
		w.MaximizeAnimation(tc, 22, 10)
		total = tc.Now().Sub(start)
	})
	k.Run(simtime.Time(10 * simtime.Second))
	// ~80ms prep + 22 ticks ≥ 220ms + redraw: total within [300ms, 900ms].
	if total < simtime.FromMillis(300) || total > simtime.FromMillis(900) {
		t.Fatalf("maximize animation total = %v, want Fig.4 scale (~500ms)", total)
	}
}

func TestCallsCounter(t *testing.T) {
	p := persona.NT40()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		w.TextOut(tc, 3)
		w.MouseEvent(tc)
	})
	k.Run(simtime.Time(simtime.Second))
	if w.Calls() != 4 {
		t.Fatalf("Calls = %d, want 4", w.Calls())
	}
	if w.Persona().Short != "nt40" {
		t.Fatalf("persona accessor wrong")
	}
}

func TestDeterministicCursors(t *testing.T) {
	run := func() simtime.Duration {
		d, _ := measure(t, persona.W95(), 2, func(tc *kernel.TC, w *WinSys) {
			w.RepaintLines(tc, 15)
			w.DrawChart(tc, 100)
			w.ScrollWindow(tc)
		})
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("winsys non-deterministic: %v vs %v", a, b)
	}
}
