package kernel

import (
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
// one elides the clean cycles and crosses the ticks among them; both
// are stopped at the same irregular boundaries, and at each the idle
// thread's quantumLeft, the next sequence number and the armed tick's
// (time, seq) key must agree. A 2.5 ms quantum over 1.03 ms cycles makes
// the elided spans straddle quantum refills at a different phase every
// time. No other thread runs, so nothing preempts the idle thread and
// resets its slice.
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
		cfg := DefaultConfig()
		cfg.Quantum = 2500 * simtime.Microsecond
		k := New(cfg)
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
}
