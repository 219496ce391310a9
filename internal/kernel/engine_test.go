package kernel

import (
	"fmt"
	"slices"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/simtime"
)

// quantumProbe is a BulkLoop that counts the elided spans whose replay
// had to refill the quantum. The idle loop's body stores the thread's
// slice in before each time it issues a cycle, and tryBulkSkip runs
// right after that fetch, with the slice untouched, so before holds the
// slice a span starts with.
type quantumProbe struct {
	before  simtime.Duration
	refills int
}

func (p *quantumProbe) OnBulk(n int64, _ simtime.Time, cycle simtime.Duration) {
	if simtime.Duration(n)*cycle > p.before {
		p.refills++
	}
}

// TestElisionReplaysLeftoverQuantum checks the elided state no sample
// or counter shows: the slice an elided span leaves the idle thread, and
// the queue's sequence counter and next tick a span that crossed ticks
// leaves. A traced kernel simulates every cycle and tick and an untraced
// one elides the cycles whose pages are resident and crosses the ticks
// among them; both are stopped at the same irregular boundaries, and at
// each the idle thread's quantumLeft, the next sequence number and the
// armed tick's (time, seq) key must agree. The loop's 1.03 ms cycle does not divide
// the 20 ms quantum, so the elided spans straddle quantum refills at a
// different phase every time. No other thread runs, so nothing preempts
// the idle thread and resets its slice.
func TestElisionReplaysLeftoverQuantum(t *testing.T) {
	spin := cpu.Segment{Name: "spin", BaseCycles: 70_000, Instructions: 50_000,
		CodePages: []uint64{40}, DataPages: []uint64{41}}
	record := cpu.Segment{Name: "record", BaseCycles: 33_000, Instructions: 20_000, DataRefs: 9_000,
		CodePages: []uint64{40}, DataPages: []uint64{42}}
	type rig struct {
		k     *Kernel
		idle  *Thread
		probe *quantumProbe
	}
	boot := func(traced bool) rig {
		k := New(DefaultConfig())
		if traced {
			attach(k)
		}
		p := &quantumProbe{}
		idle := k.SpawnLoop("idle", KernelProc, IdlePriority, func(lc *LoopTC) bool {
			p.before = lc.Thread().quantumLeft
			lc.Compute2(spin, record)
			return true
		})
		idle.SetBulkLoop(p)
		return rig{k, idle, p}
	}
	oracle, fast := boot(true), boot(false)
	defer oracle.k.Shutdown()
	defer fast.k.Shutdown()

	until := simtime.Time(0)
	for i := 0; until < simtime.Time(1500*simtime.Millisecond); i++ {
		// Irregular 3 to 9 ms steps, so the boundaries wander across the
		// 10 ms tick period.
		until = until.Add(simtime.Duration(3000+(i*2377)%6001) * simtime.Microsecond)
		a, b := oracle.k.Run(until), fast.k.Run(until)
		if a != b {
			t.Fatalf("Run(%v) stopped at %v traced, %v untraced", until, a, b)
		}
		if qa, qb := oracle.idle.quantumLeft, fast.idle.quantumLeft; qa != qb {
			t.Fatalf("at %v the idle thread has %v of its quantum left traced, %v untraced", until, qa, qb)
		}
		if a, b := oracle.k.QueueSeq(), fast.k.QueueSeq(); a != b {
			t.Fatalf("at %v the queue's next sequence number is %d traced, %d untraced", until, a, b)
		}
		if a, b := oracle.k, fast.k; a.tickAt != b.tickAt || a.tickSeq != b.tickSeq {
			t.Fatalf("at %v the next tick is (%v, %d) traced, (%v, %d) untraced", until, a.tickAt, a.tickSeq, b.tickAt, b.tickSeq)
		}
	}
	if n := oracle.k.BulkElided(); n != 0 {
		t.Fatalf("traced kernel elided %d cycles, want 0", n)
	}
	if fast.k.BulkElided() == 0 || fast.probe.refills == 0 || fast.k.TicksCrossed() == 0 {
		t.Fatalf("untraced kernel elided %d cycles in %d refilling spans and crossed %d ticks; the check is vacuous",
			fast.k.BulkElided(), fast.probe.refills, fast.k.TicksCrossed())
	}
	t.Logf("elided %d cycles in %d refilling spans, crossed %d ticks", fast.k.BulkElided(), fast.probe.refills, fast.k.TicksCrossed())
}

// spanStarts is a BulkLoop that logs the instant of every elided run.
type spanStarts []simtime.Time

func (s *spanStarts) OnBulk(_ int64, start simtime.Time, _ simtime.Duration) {
	*s = append(*s, start)
}

// TestElisionSettlesBusyAtHandlerEnd checks the busy state an elided
// span starts from when it starts at the instant a tick's handler
// ends. The idle loop's cycles touch no pages, so each costs exactly
// its 1 ms of base cycles, and with no context-switch charge the tenth
// ends at the first tick, 10 ms. The tick takes that instant first
// (TestClockTieRule), so the cycle's end waits for its handler, and the
// handler's end is where the idle thread fetches its next cycle and the
// span starts, with the tick's busy state not yet settled by the
// reconcile that resumed the thread. A traced kernel simulates every
// cycle and tick; at every Run boundary both must report the same
// non-idle busy time and the same OnBusy transitions.
func TestElisionSettlesBusyAtHandlerEnd(t *testing.T) {
	spin := cpu.Segment{Name: "spin", BaseCycles: 70_000, Instructions: 50_000}
	record := cpu.Segment{Name: "record", BaseCycles: 30_000, Instructions: 20_000}
	type rig struct {
		k      *Kernel
		busy   []string
		starts spanStarts
	}
	boot := func(traced bool) *rig {
		cfg := DefaultConfig()
		cfg.ContextSwitch = cpu.Segment{}
		r := &rig{k: New(cfg)}
		if traced {
			attach(r.k)
		}
		r.k.SetHooks(Hooks{OnBusy: func(busy bool, now simtime.Time) {
			r.busy = append(r.busy, fmt.Sprintf("%v@%v", busy, now))
		}})
		idle := r.k.SpawnLoop("idle", KernelProc, IdlePriority, func(lc *LoopTC) bool {
			lc.Compute2(spin, record)
			return true
		})
		idle.SetBulkLoop(&r.starts)
		return r
	}
	oracle, fast := boot(true), boot(false)
	defer oracle.k.Shutdown()
	defer fast.k.Shutdown()

	for until := simtime.Time(0); until < simtime.Time(200*simtime.Millisecond); {
		until = until.Add(7 * simtime.Millisecond)
		oracle.k.Run(until)
		fast.k.Run(until)
		if a, b := oracle.k.NonIdleBusyTime(), fast.k.NonIdleBusyTime(); a != b {
			t.Fatalf("at %v the non-idle busy time is %v traced, %v untraced", until, a, b)
		}
		if a, b := fmt.Sprint(oracle.busy), fmt.Sprint(fast.busy); a != b {
			t.Fatalf("at %v the busy transitions are\n%s traced,\n%s untraced", until, a, b)
		}
	}
	handlerEnd := simtime.Time(ClockTick).Add(fast.k.CPU().DurationOf(fast.k.CPU().WarmCycles(&fast.k.cfg.ClockInterrupt)))
	if !slices.Contains(fast.starts, handlerEnd) || fast.k.TicksCrossed() == 0 {
		t.Fatalf("no elided span started at the first tick's handler end %v (span starts %v, %d ticks crossed); the check is vacuous",
			handlerEnd, fast.starts, fast.k.TicksCrossed())
	}
}
