// Package kernel implements the simulated operating system under study:
// a single-CPU priority scheduler with preemption and timeslicing, a
// 10 ms clock interrupt, interrupt-driven devices that steal time from
// whatever is running, per-thread message queues behind GetMessage/
// PeekMessage, and synchronous file I/O through the buffer cache.
//
// Application threads are coroutines (Spawn): the kernel resumes a
// thread's body when it wants the thread's next request, and the body
// yields that request back, so exactly one of {simulator, one thread}
// executes at any moment and runs are deterministic and data-race-free
// by construction. Any code that reads a message is such a body.
// Housekeeping threads (SpawnLoop), and application threads for a run
// of primitives (TC.Loop), instead hand the kernel a loop function it
// calls in simulator context, which issues the same reply-free requests
// with no resume at all.
//
// One modelling approximation is worth stating up front: a Compute
// request is costed against the memory system when it starts, even
// though its simulated time is consumed under scheduling (possibly
// interleaved with interrupts and preemption). Costing therefore happens
// in execution-start order, which preserves the warmth effects the paper
// analyses; what is lost is only re-costing of a chunk's tail after a
// mid-chunk context switch.
package kernel

import (
	"fmt"
	"slices"

	"latlab/internal/cpu"
	"latlab/internal/disk"
	"latlab/internal/eventq"
	"latlab/internal/fscache"
	"latlab/internal/machine"
	"latlab/internal/simtime"
	"latlab/internal/spans"
	"latlab/internal/trace"
)

// Config fixes the machine and OS-mechanism parameters. Personas supply
// different configs per simulated operating system; the hardware side
// is carried by Machine, with the paper's Pentium as the default.
type Config struct {
	// Machine is the hardware profile the kernel boots on: clock rate,
	// TLB/L2 capacities and tagging, memory-event penalties, and disk
	// geometry are all derived from it. The zero value means
	// machine.Pentium100(), the paper's machine.
	Machine machine.Profile
	// ContextSwitch is the cost charged when the CPU moves between
	// threads.
	ContextSwitch cpu.Segment
	// ClockInterrupt is the per-tick handler cost (~400 cycles minimum
	// on NT 4.0, paper §2.5).
	ClockInterrupt cpu.Segment
	// DiskInterrupt and KeyboardInterrupt and MouseInterrupt are the
	// device-handler costs.
	DiskInterrupt     cpu.Segment
	KeyboardInterrupt cpu.Segment
	MouseInterrupt    cpu.Segment
	// ModeSwitchCycles is the cost of a user/kernel mode switch without
	// an address-space change.
	ModeSwitchCycles int64
	// DomainCrossingCycles is the direct cost of a protection-domain
	// crossing, excluding the TLB refills it causes. It is the one
	// penalty the OS owns (trap path, state save, address-space
	// switch), so personas set it while the Machine profile supplies
	// the hardware penalties. Zero makes a crossing free.
	DomainCrossingCycles int64
}

// Every kernel gets the same buffer cache and the same disk phase:
// cachePages sizes the cache (8 MB out of 32 MB RAM) and diskSeed fixes
// the drive's rotational phase.
const (
	cachePages = 2048
	diskSeed   = 1996
)

// ClockTick is the hardware timer period: 10 ms on every system the
// paper measured, and on every machine latlab simulates. Sleep and
// SetTimer wake on a tick, the timer behaviour behind the paper's Fig. 4
// animation stair pattern.
const ClockTick = 10 * simtime.Millisecond

// Quantum is the scheduler timeslice, the same on every persona.
const Quantum = 20 * simtime.Millisecond

// DefaultConfig returns a neutral machine configuration; personas
// override the OS-specific pieces.
func DefaultConfig() Config {
	return Config{
		ContextSwitch:        cpu.Segment{Name: "ctxsw", BaseCycles: 600, Instructions: 400, DataRefs: 150},
		ClockInterrupt:       cpu.Segment{Name: "clock", BaseCycles: 400, Instructions: 250, DataRefs: 80},
		DiskInterrupt:        cpu.Segment{Name: "diskintr", BaseCycles: 2500, Instructions: 1500, DataRefs: 600},
		KeyboardInterrupt:    cpu.Segment{Name: "kbdintr", BaseCycles: 3000, Instructions: 1800, DataRefs: 700},
		MouseInterrupt:       cpu.Segment{Name: "mouseintr", BaseCycles: 1500, Instructions: 900, DataRefs: 350},
		ModeSwitchCycles:     150,
		DomainCrossingCycles: 500,
	}
}

// Hooks are observation points for the measurement layer. All are
// optional. They fire from simulator context; handlers must not call
// back into the kernel except for pure queries.
type Hooks struct {
	// OnMsgAPI fires for every completed GetMessage/PeekMessage call.
	OnMsgAPI func(rec trace.MsgRecord)
	// OnPost fires when a message is enqueued.
	OnPost func(target *Thread, msg Msg, now simtime.Time, queueLen int)
	// OnBusy fires when the CPU's non-idle-busy state changes. Idle-class
	// threads do not count as busy — they stand in for the idle loop.
	OnBusy func(busy bool, now simtime.Time)
	// OnSyncIO fires when the number of outstanding synchronous I/O
	// requests changes.
	OnSyncIO func(outstanding int, now simtime.Time)
}

// Kernel is the simulated operating system instance.
type Kernel struct {
	cfg Config
	now simtime.Time
	// runUntil is the current Run call's horizon; bulk idle-skip never
	// advances the clock past it.
	runUntil simtime.Time
	q        eventq.Queue
	cpu      *cpu.CPU
	ctrs     *cpu.CounterFile
	disk     *disk.Disk
	cache    *fscache.Cache
	hooks    Hooks

	threads []*Thread
	ready   []*Thread
	seq     uint64

	current     *Thread
	stolenUntil simtime.Time
	lastRun     *Thread

	// The running chunk's completion is kept beside the queue, not in
	// it: there is at most one at a time, yet queued it would be two
	// thirds of all schedules and the target of every cancellation (an
	// interrupt or a preemption cutting the chunk short). chunkArmed
	// says a chunk is running; it completes at chunkEnd. chunkSeq is
	// the sequence number the queue was to give its next event when the
	// chunk started, so Run fires the completion exactly where a queued
	// one would have fired: before every event scheduled after the chunk
	// started, and after every one scheduled before it for the same
	// instant.
	chunkArmed bool
	chunkEnd   simtime.Time
	chunkSeq   uint64

	// The 10 ms clock tick waits beside the queue too, so idle elision
	// can see the next event that is not a tick and cross the ticks
	// before it (tryBulkSkip). tickArmed says a tick is due at tickAt;
	// tickSeq is the sequence number reserved for it when it was armed,
	// the one it would have taken in the queue, so every event keeps
	// the key it had with the tick queued.
	tickArmed bool
	tickAt    simtime.Time
	tickSeq   uint64

	// reconcileFn is the cached reconcile callback: the scheduler arms
	// it thousands of times per simulated second, and recreating the
	// closure (or method value) on every arm was a measurable share of
	// all allocations.
	reconcileFn func(now simtime.Time)

	inReconcile    bool
	reconcileAgain bool

	// tickJitter, when set, perturbs the arming of each clock tick (the
	// fault layer's timer-jitter injection). nil means exact 10 ms ticks.
	tickJitter func(now simtime.Time, tick int64) simtime.Duration
	ioErrs     int64

	syncIO   int
	busy     bool
	busyAcc  simtime.Duration
	busyFrom simtime.Time

	clockTicks int64
	shutdown   bool
	// bulkElided counts idle cycles accounted analytically, and
	// ticksCrossed the clock ticks replayed inside them; cyclesSimulated
	// counts the cycles of bulk-tracked threads simulated instead
	// (noteBulkCycle).
	bulkElided      int64
	ticksCrossed    int64
	cyclesSimulated int64
	// resumes counts coroutine-thread resumptions (fetchInto), the
	// round trips TC.Loop saves.
	resumes int64

	// rec, when non-nil, receives cause-tagged spans from every charge
	// point in the kernel and its machine. episode/epThread/epOpen track
	// the one interactive episode open at a time: from a user-input
	// message's enqueue to the handling thread's next message-API call.
	rec      *spans.Recorder
	episode  spans.Handle
	epThread int
	epOpen   bool

	// Modern-machine state (multicore.go); all of it stays zero on a
	// 1996 profile. aux holds logical CPUs 1..Cores-1; dvfs is the
	// governor spec with dvfsLevel/dvfsBusyMark its per-tick state;
	// irqc/irqPending/irqFlushes implement disk-interrupt coalescing.
	aux           []auxCore
	auxMigrations int64
	dvfs          machine.DVFSSpec
	dvfsLevel     int
	dvfsBusyMark  simtime.Duration
	irqc          machine.IRQCoalesceSpec
	irqPending    []func(now simtime.Time)
	irqFlushes    uint64
}

// New builds a kernel (and its machine: CPU, disk, buffer cache) from
// cfg. cfg.Machine (the paper's Pentium when unset) is the one source
// of the clock, the hardware penalties and the disk; the crossing cost
// is cfg.DomainCrossingCycles. A profile that fails machine.Validate
// panics here rather than boot a machine that is not what it claims.
func New(cfg Config) *Kernel {
	prof := cfg.Machine.OrDefault()
	prof.Validate()
	cfg.Machine = prof
	k := &Kernel{cfg: cfg}
	k.reconcileFn = func(now simtime.Time) { k.reconcile() }
	k.cpu = cpu.NewFor(prof)
	k.cpu.Penalties.DomainCrossing = cfg.DomainCrossingCycles
	k.ctrs = cpu.NewCounterFile(k.cpu)
	k.disk = disk.New(prof.Disk, k, diskSeed)
	k.cache = fscache.New(k.disk, cachePages)
	if n := prof.Cores - 1; n > 0 {
		k.aux = make([]auxCore, n)
	}
	if prof.DVFS.Enabled() {
		// The machine boots at the governor's lowest level, the resting
		// point an idle machine decays to.
		k.dvfs = prof.DVFS
		k.cpu.SetClock(k.dvfs.Level(0))
	}
	k.irqc = prof.IRQCoalesce
	k.tickArmed, k.tickAt, k.tickSeq = true, k.now.Add(ClockTick), k.q.ReserveSeq()
	return k
}

// Machine returns the hardware profile the kernel booted on.
func (k *Kernel) Machine() machine.Profile { return k.cfg.Machine }

// SetHooks installs observation hooks; call before Run.
func (k *Kernel) SetHooks(h Hooks) { k.hooks = h }

// SetRecorder attaches a span recorder to the kernel and its whole
// machine (CPU, memory system, disk, buffer cache), so every charge
// point emits a cause-tagged span. A nil recorder restores the exact
// untraced code path everywhere. Recording never perturbs the
// simulation: schedules are byte-identical with and without it.
func (k *Kernel) SetRecorder(rec *spans.Recorder) {
	k.rec = rec
	k.cpu.SetRecorder(rec, func() simtime.Time { return k.now })
	k.disk.SetRecorder(rec)
	k.cache.SetRecorder(rec)
}

// Now returns the current simulated time.
func (k *Kernel) Now() simtime.Time { return k.now }

// CPU returns the simulated processor.
func (k *Kernel) CPU() *cpu.CPU { return k.cpu }

// Counters returns the performance-counter file.
func (k *Kernel) Counters() *cpu.CounterFile { return k.ctrs }

// Cache returns the buffer cache (for file registration).
func (k *Kernel) Cache() *fscache.Cache { return k.cache }

// Disk returns the disk model.
func (k *Kernel) Disk() *disk.Disk { return k.disk }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Threads returns every thread spawned so far, in spawn order, exited
// ones included. The slice is the caller's.
func (k *Kernel) Threads() []*Thread { return slices.Clone(k.threads) }

// ClockTicks returns the number of clock interrupts taken so far.
func (k *Kernel) ClockTicks() int64 { return k.clockTicks }

// SyncIOOutstanding returns the number of threads blocked in synchronous
// file I/O.
func (k *Kernel) SyncIOOutstanding() int { return k.syncIO }

// IOErrors returns the number of file I/O operations that completed with
// a device error (only possible with a disk fault model installed).
func (k *Kernel) IOErrors() int64 { return k.ioErrs }

// SetTickJitter installs (or, with nil, removes) a perturbation applied
// when each clock tick is armed: the next tick fires at now+ClockTick+fn.
// Negative or zero jitter leaves the tick exact. Implementations must be
// deterministic; tick is the index of the tick just taken.
func (k *Kernel) SetTickJitter(fn func(now simtime.Time, tick int64) simtime.Duration) {
	k.tickJitter = fn
}

// SetPriority changes t's scheduling priority and re-runs the scheduler,
// so a raise can preempt the current thread and a drop can yield to a
// newly-best peer. The fault layer uses it to open priority-inversion
// windows.
func (k *Kernel) SetPriority(t *Thread, prio int) {
	if prio < IdlePriority {
		panic("kernel: priority below idle class")
	}
	if t.prio == prio {
		return
	}
	t.prio = prio
	k.reconcile()
}

// NonIdleBusyTime returns cumulative CPU time spent on interrupt handlers
// and non-idle-class threads — the simulator's ground truth against which
// the idle-loop methodology is validated.
func (k *Kernel) NonIdleBusyTime() simtime.Duration {
	if k.busy {
		return k.busyAcc + k.now.Sub(k.busyFrom)
	}
	return k.busyAcc
}

// After schedules fn at now+d (disk.Scheduler implementation).
func (k *Kernel) After(d simtime.Duration, fn func(now simtime.Time)) {
	if d < 0 {
		panic("kernel: negative delay")
	}
	k.q.Schedule(k.now.Add(d), fn)
}

// At schedules fn at instant t (panics if t is in the past).
func (k *Kernel) At(t simtime.Time, fn func(now simtime.Time)) {
	if t < k.now {
		panic(fmt.Sprintf("kernel: scheduling into the past (%v < %v)", t, k.now))
	}
	k.q.Schedule(t, fn)
}

// NextTick returns the first clock-tick instant at or after t.
func (k *Kernel) NextTick(t simtime.Time) simtime.Time {
	tick := int64(ClockTick)
	n := (int64(t) + tick - 1) / tick
	return simtime.Time(n * tick)
}

// newThread is the one constructor behind Spawn, SpawnLoop and
// SpawnLoopOn: it checks the priority and registers a thread, with its
// LoopTC, that has not run yet.
func (k *Kernel) newThread(name string, proc ProcID, prio int) *Thread {
	if prio < IdlePriority {
		panic("kernel: priority below idle class")
	}
	t := &Thread{id: len(k.threads) + 1, name: name, proc: proc, prio: prio, k: k, state: StateNew}
	t.loopTC = LoopTC{t: t, k: k}
	k.threads = append(k.threads, t)
	return t
}

// Run processes events until none remain or simulated time would pass
// `until`. It returns the time at which it stopped.
//
// Three sources hold the next event: the queue head, the clock tick and
// the running chunk's completion, the last two kept beside the queue.
// Run fires whichever comes first in (time, seq) order. The tick holds
// the seq reserved for it when it was armed, so it falls exactly where a
// queued tick would. The completion holds the seq the queue was to
// assign next when the chunk started, which it never used: at the same
// instant it loses to events (the tick included) scheduled before the
// chunk started and wins against the first one scheduled after.
func (k *Kernel) Run(until simtime.Time) simtime.Time {
	// Idle elision must never advance past the run horizon: the
	// slow path stops mid-cycle at `until` exactly, so bulk elision is
	// clamped to cycles ending at or before it (tryBulkSkip).
	k.runUntil = until
	for {
		at, seq, ok := k.q.HeadKey()
		tick := k.tickArmed && (k.tickAt < at || (k.tickAt == at && k.tickSeq < seq))
		if tick {
			at, seq, ok = k.tickAt, k.tickSeq, true
		}
		chunk := k.chunkArmed && (k.chunkEnd < at || (k.chunkEnd == at && k.chunkSeq <= seq))
		if chunk {
			at, ok = k.chunkEnd, true
		}
		if !ok || at > until {
			k.advance(until)
			return k.now
		}
		k.advance(at)
		switch {
		case chunk:
			k.completeChunk()
		case tick:
			k.clockTick()
		default:
			e, _ := k.q.Pop()
			e.Fire(k.now)
		}
	}
}

// RunFor runs for a span of simulated time.
func (k *Kernel) RunFor(d simtime.Duration) simtime.Time {
	return k.Run(k.now.Add(d))
}

func (k *Kernel) advance(t simtime.Time) {
	if t < k.now {
		panic("kernel: time went backwards")
	}
	k.now = t
}

// Shutdown kills all live threads, so every coroutine's goroutine
// exits. The kernel is unusable afterwards.
func (k *Kernel) Shutdown() {
	if k.shutdown {
		return
	}
	k.shutdown = true
	if k.epOpen {
		k.rec.EndAt(k.episode, k.now)
		k.epOpen = false
	}
	for _, t := range k.threads {
		if t.state == StateDone {
			continue
		}
		// A live coroutine thread is parked in a primitive's yield (or
		// TC.Loop's), or has not run yet; stop unwinds the first and
		// ends the second. SpawnLoop threads have no coroutine.
		if t.stop != nil {
			t.stop()
		}
		t.state = StateDone
	}
}

// clockTick takes the hardware clock interrupt Run found due, and arms
// the next one.
func (k *Kernel) clockTick() {
	k.tickArmed = false
	if k.shutdown {
		return
	}
	k.clockTicks++
	if k.dvfs.Enabled() {
		// Governor step first, over the window that just closed,
		// before this tick's own handler cost lands in the next one.
		k.dvfsTick()
	}
	k.RaiseInterrupt(k.cfg.ClockInterrupt, nil)
	k.rearmTick()
}

// rearmTick arms the tick after the one taken at now: ClockTick later,
// plus the jitter drawn for it, under the next sequence number.
func (k *Kernel) rearmTick() {
	next := k.now.Add(ClockTick)
	if k.tickJitter != nil {
		if j := k.tickJitter(k.now, k.clockTicks); j > 0 {
			next = next.Add(j)
		}
	}
	k.tickArmed, k.tickAt, k.tickSeq = true, next, k.q.ReserveSeq()
}

// RaiseInterrupt models a hardware interrupt: the handler segment is
// costed against the machine, the CPU is stolen from whatever thread is
// running for the handler's duration (handlers queue behind each other),
// and actions — the handler's visible effects, such as posting an input
// message — run at handler completion.
func (k *Kernel) RaiseInterrupt(handler cpu.Segment, actions func(now simtime.Time)) {
	var ih spans.Handle
	if k.rec != nil {
		ih = k.rec.Begin(spans.CauseInterrupt, handler.Name)
	}
	_, d := k.cpu.Execute(&handler)
	k.cpu.Add(cpu.Interrupts, 1)

	k.pauseCurrent()
	start := k.now
	if k.stolenUntil > start {
		start = k.stolenUntil
	}
	k.stolenUntil = start.Add(d)
	end := k.stolenUntil
	k.rec.EndAt(ih, end)
	if actions == nil {
		k.q.Schedule(end, k.reconcileFn)
	} else {
		k.q.Schedule(end, func(now simtime.Time) {
			actions(now)
			k.reconcile()
		})
	}
	k.updateBusy()
}

// DeviceInterrupt raises a device interrupt whose handler delivers msgs
// to target, in order, at handler completion. Each message's Enqueued
// stamp is the interrupt time — the instant the user acted — so latency
// measured from it includes handler and scheduling time (the Fig. 1
// discrepancy).
func (k *Kernel) DeviceInterrupt(handler cpu.Segment, target *Thread, msgs ...Msg) {
	enq := k.now
	k.RaiseInterrupt(handler, func(now simtime.Time) {
		for _, m := range msgs {
			m.Enqueued = enq
			k.deliver(target, m)
		}
	})
}

// KeyboardInterrupt raises a keyboard interrupt whose handler posts the
// message to target at completion.
func (k *Kernel) KeyboardInterrupt(target *Thread, kind MsgKind, param int64) {
	k.DeviceInterrupt(k.cfg.KeyboardInterrupt, target, Msg{Kind: kind, Param: param})
}

// MouseInterrupt raises a mouse interrupt whose handler posts the message
// to target at completion.
func (k *Kernel) MouseInterrupt(target *Thread, kind MsgKind, param int64) {
	k.DeviceInterrupt(k.cfg.MouseInterrupt, target, Msg{Kind: kind, Param: param})
}

// PostMessage enqueues a message from simulator context (timers, devices)
// without interrupt cost.
func (k *Kernel) PostMessage(target *Thread, kind MsgKind, param int64) {
	k.deliver(target, Msg{Kind: kind, Param: param, Enqueued: k.now})
	k.reconcile()
}

// deliver appends msg to target's queue, stamps Enqueued if unset, fires
// hooks, and wakes the target if it is blocked in GetMessage.
func (k *Kernel) deliver(target *Thread, msg Msg) {
	if target == nil {
		panic("kernel: deliver to nil thread")
	}
	if target.state == StateDone {
		return // messages to exited threads vanish
	}
	if msg.Enqueued == 0 {
		msg.Enqueued = k.now
	}
	target.msgq = append(target.msgq, msg)
	if k.hooks.OnPost != nil {
		k.hooks.OnPost(target, msg, k.now, len(target.msgq))
	}
	if target.state == StateBlockedMsg {
		k.wake(target)
	}
}

// wake moves a blocked or sleeping thread to the ready queue.
func (k *Kernel) wake(t *Thread) {
	switch t.state {
	case StateBlockedMsg, StateBlockedIO, StateSleeping:
		k.makeReady(t)
		k.reconcile()
	}
}

func (k *Kernel) makeReady(t *Thread) {
	if t.affinity > 0 {
		// Pinned housekeeping threads never touch the scheduler core's
		// ready queue; they wake onto their auxiliary core.
		k.auxReady(t)
		return
	}
	t.state = StateReady
	t.readySeq = k.seq
	k.seq++
	if k.rec != nil {
		t.readyAt = k.now
	}
	k.ready = append(k.ready, t)
}

// updateBusy recomputes non-idle business and fires the hook on change.
func (k *Kernel) updateBusy() {
	busy := k.now < k.stolenUntil ||
		(k.current != nil && k.current.prio > IdlePriority)
	if busy == k.busy {
		return
	}
	if busy {
		k.busyFrom = k.now
	} else {
		k.busyAcc += k.now.Sub(k.busyFrom)
	}
	k.busy = busy
	if k.hooks.OnBusy != nil {
		k.hooks.OnBusy(busy, k.now)
	}
}
