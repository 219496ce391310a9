package kernel

import (
	"fmt"

	"latlab/internal/simtime"
)

// This file is the modern-machine half of the kernel: auxiliary cores,
// the DVFS governor, and disk-interrupt coalescing. All three are
// driven entirely by machine.Profile fields that are zero on every
// 1996 profile, and every hook below reduces to the exact pre-modern
// code path when its axis is off — which is what keeps the golden
// corpus byte-identical.
//
// The core model is deliberately bounded. Logical CPU 0 runs the full
// single-CPU scheduler, untouched: preemption, quanta, interrupts,
// TLB/cache warmth, and the idle-loop instrument all live there, as
// they did on the paper's machine. Logical CPUs 1..Cores-1 are
// auxiliary run queues for kernel-resident housekeeping threads
// (SpawnLoopOn): run-to-completion FIFO, no preemption, work costed
// against a per-core warmth approximation instead of the shared
// memory system. That asymmetry is the point — the paper's
// methodology instruments one CPU, so work that migrates off it
// simply vanishes from the instrument's view. AuxBusyTime is the
// simulator's ground truth for what the idle loop can no longer see.
type auxCore struct {
	// current is the thread whose chunk occupies the core; busyUntil
	// when that chunk completes, and chunk its length.
	current   *Thread
	busyUntil simtime.Time
	chunk     simtime.Duration
	// done completes the chunk in flight, reading its thread from
	// current. A core runs one chunk at a time, so one callback, bound
	// on the core's first chunk, serves them all.
	done func(simtime.Time)
	// queue is the core's FIFO of ready-but-waiting threads.
	queue []*Thread
	// lastThread tracks whose working set is warm on this core: a
	// different incoming thread pays its cold working-set refill.
	lastThread *Thread
	// busyAcc accumulates completed chunk time (the core's busy total).
	busyAcc simtime.Duration
}

// SpawnLoopOn creates a kernel-resident loop thread pinned to logical
// CPU cpuID. cpuID 0 is the scheduler core (identical to SpawnLoop);
// 1..Cores-1 are the auxiliary cores. Only loop threads can be pinned
// off core 0: the aux interpreter runs in simulator context and
// supports the loop primitives Compute, Compute2 and Sleep, plus exit.
func (k *Kernel) SpawnLoopOn(name string, proc ProcID, prio int, cpuID int, fn func(lc *LoopTC) bool) *Thread {
	if cpuID < 0 || cpuID > len(k.aux) {
		panic(fmt.Sprintf("kernel: cpu %d outside machine (have %d aux cores)", cpuID, len(k.aux)))
	}
	if fn == nil {
		panic("kernel: nil loop function")
	}
	t := k.newThread(name, proc, prio)
	t.loopFn = fn
	t.affinity = cpuID
	if cpuID == 0 {
		k.makeReady(t)
		k.reconcile()
	} else {
		k.auxReady(t)
	}
	return t
}

// AuxBusyTime returns cumulative chunk time completed on the auxiliary
// cores — work the single-CPU idle-loop instrument cannot observe.
func (k *Kernel) AuxBusyTime() simtime.Duration {
	total := simtime.Duration(0)
	for i := range k.aux {
		total += k.aux[i].busyAcc
	}
	return total
}

// AuxMigrations returns how many aux chunks started on a different
// core than the thread's previous chunk (each paid MigrationCycles).
func (k *Kernel) AuxMigrations() int64 { return k.auxMigrations }

// auxReady places a pinned thread on an auxiliary core. The home core
// takes it when free; when the home core is occupied, the thread is
// stolen by the first idle aux core (deterministic scan order) and
// pays the migration tax; when every core is busy it queues FIFO on
// its home core.
func (k *Kernel) auxReady(t *Thread) {
	home := t.affinity - 1
	if k.aux[home].current == nil {
		t.state = StateReady
		k.auxRun(home, t)
		return
	}
	for i := range k.aux {
		if i != home && k.aux[i].current == nil && len(k.aux[i].queue) == 0 {
			t.state = StateReady
			k.auxRun(i, t)
			return
		}
	}
	t.state = StateReady
	k.aux[home].queue = append(k.aux[home].queue, t)
}

// auxDispatch starts the next queued thread on core ci, if any.
func (k *Kernel) auxDispatch(ci int) {
	c := &k.aux[ci]
	if c.current != nil || len(c.queue) == 0 {
		return
	}
	t := c.queue[0]
	copy(c.queue, c.queue[1:])
	c.queue = c.queue[:len(c.queue)-1]
	k.auxRun(ci, t)
}

// auxRun drives thread t on aux core ci until it blocks (compute chunk
// in flight, sleeping) or exits. Loop threads issue one request per
// invocation; a compute that costs no time is absorbed here, bounded
// against a request stream that never consumes time.
func (k *Kernel) auxRun(ci int, t *Thread) {
	c := &k.aux[ci]
	for iter := 0; ; iter++ {
		if iter > 1_000_000 {
			panic("kernel: aux thread " + t.name + " is spinning without consuming time")
		}
		k.fetchInto(t)
		r := &t.reqSlot
		switch r.kind {
		case reqExit:
			t.state = StateDone
			k.auxDispatch(ci)
			return

		case reqSleep:
			k.sleep(t, r.d)
			k.auxDispatch(ci)
			return

		case reqCompute, reqCompute2:
			cycles := k.auxCost(ci, t, r)
			d := k.cpu.Freq.DurationOf(cycles)
			if k.cfg.Machine.SMTPerCore == 2 && k.cfg.Machine.SMTContentionPct > 0 &&
				k.siblingBusy(ci+1) {
				d = d * simtime.Duration(100+k.cfg.Machine.SMTContentionPct) / 100
			}
			if d <= 0 {
				continue
			}
			t.state = StateRunning
			t.lastCPU = ci + 1
			c.current, c.chunk = t, d
			c.busyUntil = k.now.Add(d)
			if c.done == nil {
				c.done = func(simtime.Time) {
					if k.shutdown {
						return
					}
					t := c.current
					c.busyAcc += c.chunk
					c.current = nil
					if t.state == StateRunning {
						k.auxRun(ci, t)
					} else {
						k.auxDispatch(ci)
					}
				}
			}
			k.At(c.busyUntil, c.done)
			return

		default:
			panic(fmt.Sprintf("kernel: aux thread %s issued unsupported request kind %d", t.name, r.kind))
		}
	}
}

// auxCost prices one aux chunk. Aux cores do not share the scheduler
// core's memory system (separate L1/TLB per core; per-core counters
// are not modeled), so the cost is analytic: base cycles plus the
// micro-architectural per-event costs, plus a full working-set refill
// when the thread's warmth is not on this core — either because
// another thread ran here since, or because the thread migrated, which
// additionally pays the profile's migration tax.
func (k *Kernel) auxCost(ci int, t *Thread, r *request) int64 {
	p := &k.cpu.Penalties
	cycles := r.seg.BaseCycles +
		r.seg.SegmentLoads*p.SegmentLoad +
		r.seg.UnalignedAccesses*p.Unaligned
	pages := len(r.seg.CodePages) + len(r.seg.DataPages)
	chunks := len(r.seg.CacheChunks)
	if r.kind == reqCompute2 {
		cycles += r.seg2.BaseCycles +
			r.seg2.SegmentLoads*p.SegmentLoad +
			r.seg2.UnalignedAccesses*p.Unaligned
		pages += len(r.seg2.CodePages) + len(r.seg2.DataPages)
		chunks += len(r.seg2.CacheChunks)
	}
	c := &k.aux[ci]
	migrated := t.lastCPU != 0 && t.lastCPU != ci+1
	if c.lastThread != t || migrated {
		cycles += int64(pages)*p.TLBMiss + int64(chunks)*p.CacheMiss
	}
	if migrated {
		cycles += k.cfg.Machine.MigrationCycles
		k.auxMigrations++
	}
	c.lastThread = t
	return cycles
}

// siblingBusy reports whether logical CPU c's SMT sibling (c^1 under
// 2-way SMT) is occupied right now. Logical CPU 0 — the scheduler
// core — counts as busy when the CPU is stolen by handlers or a
// non-idle thread is current; its sibling is logical CPU 1, which is
// why the housekeeping core feels the foreground's contention.
func (k *Kernel) siblingBusy(c int) bool {
	s := c ^ 1
	if s == 0 {
		return k.now < k.stolenUntil || (k.current != nil && k.current.prio > IdlePriority)
	}
	if s-1 >= len(k.aux) {
		return false
	}
	a := &k.aux[s-1]
	return a.current != nil && k.now < a.busyUntil
}

// dvfsTick is the governor step, run once per clock tick: it converts
// the window's non-idle busy time into a load percentage and moves the
// operating point one ladder level via machine.DVFSSpec.Next (pure,
// deterministic, monotone in load). The cycle counter is invariant
// (cpu.CycleAt stays on the base clock), so a transition changes how
// long work takes from now on — including the idle-loop instrument's
// own sampling cycles, which is precisely the distortion the
// ext-modern-dvfs experiment measures.
func (k *Kernel) dvfsTick() {
	next := k.dvfsNext()
	k.dvfsBusyMark = k.NonIdleBusyTime()
	if next != k.dvfsLevel {
		k.dvfsLevel = next
		k.cpu.SetClock(k.dvfs.Level(next))
	}
}

// dvfsNext returns the ladder level a governor step taken now would
// choose, changing nothing.
func (k *Kernel) dvfsNext() int {
	window := k.NonIdleBusyTime() - k.dvfsBusyMark
	return k.dvfs.Next(k.dvfsLevel, int(100*window/ClockTick))
}

// DVFSLevel returns the governor's current ladder position (0 when the
// machine has no governor).
func (k *Kernel) DVFSLevel() int { return k.dvfsLevel }

// raiseDiskInterrupt delivers a disk-completion action. Without
// coalescing it raises one DiskInterrupt per completion — the exact
// 1996 path. With coalescing (IRQCoalesceSpec), the first pending
// completion arms a timer one window out; completions accumulate until
// the timer fires or MaxBatch is reached, then a single interrupt
// runs the whole batch's actions in completion order. One handler
// cost amortized over the batch, bought with up to one window of
// added completion latency. A batch that MaxBatch flushed early leaves
// its timer queued; the timer sees irqFlushes moved past the batch it
// was armed for and does nothing.
func (k *Kernel) raiseDiskInterrupt(action func(now simtime.Time)) {
	if !k.irqc.Enabled() {
		k.RaiseInterrupt(k.cfg.DiskInterrupt, action)
		return
	}
	k.irqPending = append(k.irqPending, action)
	if len(k.irqPending) == 1 {
		batch := k.irqFlushes
		k.At(k.now.Add(k.irqc.Window), func(now simtime.Time) {
			if k.irqFlushes == batch {
				k.flushDiskInterrupts()
			}
		})
		if k.irqc.MaxBatch > 1 {
			return
		}
	}
	if k.irqc.MaxBatch > 0 && len(k.irqPending) >= k.irqc.MaxBatch {
		k.flushDiskInterrupts()
	}
}

// flushDiskInterrupts raises one interrupt covering every pending
// completion.
func (k *Kernel) flushDiskInterrupts() {
	if k.shutdown || len(k.irqPending) == 0 {
		return
	}
	batch := k.irqPending
	k.irqPending = nil
	k.irqFlushes++
	k.RaiseInterrupt(k.cfg.DiskInterrupt, func(now simtime.Time) {
		for _, a := range batch {
			a(now)
		}
	})
}
