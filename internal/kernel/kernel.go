// Package kernel implements the simulated operating system under study:
// a single-CPU priority scheduler with preemption and timeslicing, a
// 10 ms clock interrupt, interrupt-driven devices that steal time from
// whatever is running, per-thread message queues behind GetMessage/
// PeekMessage, and synchronous file I/O through the buffer cache.
//
// Threads are goroutines coupled to the simulator by a strict handshake
// (see thread.go): exactly one of {simulator, one thread} executes at any
// moment, so runs are deterministic and data-race-free by construction.
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
	// Quantum is the scheduler timeslice.
	Quantum simtime.Duration
	// ContextSwitch is the cost charged when the CPU moves between
	// threads.
	ContextSwitch cpu.Segment
	// FlushOnProcessSwitch flushes the TLBs when the incoming thread
	// belongs to a different process (address space).
	FlushOnProcessSwitch bool
	// ClockTick is the hardware timer period (10 ms on the paper's
	// systems).
	ClockTick simtime.Duration
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
	// TimersTickAligned rounds Sleep wakeups up to clock ticks, the
	// SetTimer behaviour that produces the paper's Fig. 4 animation
	// stair pattern.
	TimersTickAligned bool
	// DiskParams overrides the drive parameters when non-zero; the zero
	// value derives them from Machine (disk.ParamsFor). CachePages
	// sizes the buffer cache; DiskSeed fixes rotational phase.
	DiskParams disk.Params
	CachePages int
	DiskSeed   uint64
	// DomainCrossingCycles overrides the direct protection-domain-
	// crossing cost when non-zero. It is the one penalty the OS owns
	// (trap path, state save, address-space switch), so personas set it
	// while the Machine profile supplies the hardware penalties.
	DomainCrossingCycles int64
	// Penalties overrides the whole CPU cost model when non-zero,
	// squashing both the Machine-derived penalties and
	// DomainCrossingCycles — the pre-profile escape hatch for ablations
	// that need exact control (including explicit zero fields).
	Penalties cpu.Penalties
	// CPUFrequency overrides the simulated clock rate when non-zero,
	// taking precedence over Machine.ClockHz. Segment costs are in
	// cycles, so a slower clock slows every operation proportionally —
	// the paper's §5.1 remark that latencies unnoticed on their machine
	// "might have a significant effect ... on a slower machine".
	CPUFrequency simtime.Hz
}

// DefaultConfig returns a neutral machine configuration; personas
// override the OS-specific pieces.
func DefaultConfig() Config {
	return Config{
		Quantum:              20 * simtime.Millisecond,
		ContextSwitch:        cpu.Segment{Name: "ctxsw", BaseCycles: 600, Instructions: 400, DataRefs: 150},
		FlushOnProcessSwitch: true,
		ClockTick:            10 * simtime.Millisecond,
		ClockInterrupt:       cpu.Segment{Name: "clock", BaseCycles: 400, Instructions: 250, DataRefs: 80},
		DiskInterrupt:        cpu.Segment{Name: "diskintr", BaseCycles: 2500, Instructions: 1500, DataRefs: 600},
		KeyboardInterrupt:    cpu.Segment{Name: "kbdintr", BaseCycles: 3000, Instructions: 1800, DataRefs: 700},
		MouseInterrupt:       cpu.Segment{Name: "mouseintr", BaseCycles: 1500, Instructions: 900, DataRefs: 350},
		ModeSwitchCycles:     150,
		TimersTickAligned:    true,
		CachePages:           2048, // 8 MB buffer cache out of 32 MB RAM
		DiskSeed:             1996,
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
	completion  eventq.Handle
	stolenUntil simtime.Time
	lastRun     *Thread

	// Cached event callbacks: the scheduler arms these thousands of
	// times per simulated second, and recreating the closure (or method
	// value) on every arm was a measurable share of all allocations.
	onCompletionFn func(now simtime.Time)
	reconcileFn    func(now simtime.Time)
	clockFn        func(now simtime.Time)

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
	// bulkElided counts idle cycles accounted analytically;
	// ctxSwitches counts thread context switches (startChunk), letting
	// the cleanliness proof require "no switch inside this cycle" —
	// a process switch may flush the TLBs without an immediate miss.
	bulkElided  int64
	ctxSwitches uint64

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
	// irqc/irqPending/irqTimer implement disk-interrupt coalescing.
	aux           []auxCore
	auxMigrations int64
	dvfs          machine.DVFSSpec
	dvfsLevel     int
	dvfsBusyMark  simtime.Duration
	irqc          machine.IRQCoalesceSpec
	irqPending    []func(now simtime.Time)
	irqTimer      eventq.Handle
}

// New builds a kernel (and its machine: CPU, disk, buffer cache) from
// cfg. The hardware trio is derived from cfg.Machine (the paper's
// Pentium when unset); explicit cfg overrides — penalty fields,
// CPUFrequency, DiskParams — win over the profile derivation.
func New(cfg Config) *Kernel {
	prof := cfg.Machine.OrDefault()
	cfg.Machine = prof
	k := &Kernel{cfg: cfg}
	k.q.Grow(256)
	k.onCompletionFn = k.onCompletion
	k.reconcileFn = func(now simtime.Time) { k.reconcile() }
	k.cpu = cpu.NewFor(prof)
	if cfg.DomainCrossingCycles != 0 {
		k.cpu.Penalties.DomainCrossing = cfg.DomainCrossingCycles
	}
	if cfg.Penalties != (cpu.Penalties{}) {
		k.cpu.Penalties = cfg.Penalties
	}
	if cfg.CPUFrequency != 0 {
		cfg.CPUFrequency.Validate()
		k.cpu.Freq = cfg.CPUFrequency
	}
	dp := cfg.DiskParams
	if dp == (disk.Params{}) {
		dp = disk.ParamsFor(prof)
	}
	k.ctrs = cpu.NewCounterFile(k.cpu)
	k.disk = disk.New(dp, k, cfg.DiskSeed)
	k.cache = fscache.New(k.disk, cfg.CachePages)
	if n := prof.Cores - 1; n > 0 {
		k.aux = make([]auxCore, n)
	}
	if prof.DVFS.Enabled() && (cfg.CPUFrequency == 0 || cfg.CPUFrequency == prof.ClockHz) {
		// The machine boots at the governor's lowest level, the resting
		// point an idle machine decays to. A CPUFrequency override that
		// contradicts the ladder disables the governor instead of
		// running a ladder whose max is not the machine's clock.
		k.dvfs = prof.DVFS
		k.cpu.SetClock(k.dvfs.Level(0))
	}
	k.irqc = prof.IRQCoalesce
	k.scheduleClock()
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

// Recorder returns the attached span recorder, nil when tracing is off.
func (k *Kernel) Recorder() *spans.Recorder { return k.rec }

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
func (k *Kernel) At(t simtime.Time, fn func(now simtime.Time)) eventq.Handle {
	if t < k.now {
		panic(fmt.Sprintf("kernel: scheduling into the past (%v < %v)", t, k.now))
	}
	return k.q.Schedule(t, fn)
}

// NextTick returns the first clock-tick instant at or after t.
func (k *Kernel) NextTick(t simtime.Time) simtime.Time {
	tick := int64(k.cfg.ClockTick)
	n := (int64(t) + tick - 1) / tick
	return simtime.Time(n * tick)
}

// Spawn creates a thread in process proc at the given priority and makes
// it runnable. The body runs on its own goroutine under the simulator's
// handshake.
func (k *Kernel) Spawn(name string, proc ProcID, prio int, body func(tc *TC)) *Thread {
	if prio < IdlePriority {
		panic("kernel: priority below idle class")
	}
	t := &Thread{
		id:       len(k.threads) + 1,
		name:     name,
		proc:     proc,
		prio:     prio,
		k:        k,
		body:     body,
		resume:   make(chan resumeToken),
		requests: make(chan request),
		state:    StateNew,
	}
	k.threads = append(k.threads, t)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					return
				}
				panic(r)
			}
		}()
		tok := <-t.resume
		if tok.kill {
			return
		}
		t.body(&TC{t: t, k: k})
		t.requests <- request{kind: reqExit}
	}()
	k.makeReady(t)
	k.reconcile()
	return t
}

// Run processes events until the queue empties or simulated time would
// pass `until`. It returns the time at which it stopped.
func (k *Kernel) Run(until simtime.Time) simtime.Time {
	// Idle elision must never advance past the run horizon: the
	// slow path stops mid-cycle at `until` exactly, so bulk elision is
	// clamped to cycles ending at or before it (tryBulkSkip).
	k.runUntil = until
	for {
		next := k.q.NextTime()
		if next == simtime.Never || next > until {
			k.advance(until)
			return k.now
		}
		e, _ := k.q.Pop()
		k.advance(e.At())
		e.Fire(k.now)
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

// Shutdown kills all live threads so their goroutines exit. The kernel
// is unusable afterwards.
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
		// A live goroutine thread is always parked receiving on resume
		// (either in its primitive's handshake or the initial wait).
		// Loop threads have no goroutine to unwind.
		if t.loopFn == nil {
			t.resume <- resumeToken{kill: true}
		}
		t.state = StateDone
	}
}

// scheduleClock arms the recurring hardware clock interrupt. The tick
// callback reschedules itself, so the whole recurring clock costs one
// closure for the kernel's lifetime instead of one per tick.
func (k *Kernel) scheduleClock() {
	k.clockFn = func(now simtime.Time) {
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
		next := k.now.Add(k.cfg.ClockTick)
		if k.tickJitter != nil {
			if j := k.tickJitter(now, k.clockTicks); j > 0 {
				next = next.Add(j)
			}
		}
		k.At(next, k.clockFn)
	}
	k.At(k.now.Add(k.cfg.ClockTick), k.clockFn)
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
	cycles, d := k.cpu.Execute(handler)
	_ = cycles
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
