package kernel

import (
	"fmt"

	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// ProcID identifies an address space. Switching the CPU between threads
// of different processes flushes the TLBs (when the kernel's config says
// so), which is how context-switch overhead reaches the latency numbers.
type ProcID int

// KernelProc is the address space of kernel helper threads.
const KernelProc ProcID = 0

// ThreadState enumerates scheduler states.
type ThreadState uint8

// Thread states.
const (
	StateNew ThreadState = iota
	StateReady
	StateRunning
	StateBlockedMsg
	StateBlockedIO
	StateSleeping
	StateDone
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlockedMsg:
		return "blocked-msg"
	case StateBlockedIO:
		return "blocked-io"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// IdlePriority is the priority of idle-class threads. A system whose
// runnable threads are all idle-class counts as idle: the paper's
// idle-loop instrument replaces the OS idle loop at exactly this level.
const IdlePriority = 0

// reqKind enumerates the primitives a thread can invoke.
type reqKind uint8

const (
	reqCompute reqKind = iota
	reqCompute2
	reqDomainCross
	reqModeSwitch
	reqGetMessage
	reqPeekMessage
	reqPost
	reqSleep
	reqReadFile
	reqWriteFile
	reqYield
	reqExit
)

// request is one primitive invocation, carried thread→kernel over the
// handshake channel.
type request struct {
	kind   reqKind
	seg    cpu.Segment
	seg2   cpu.Segment // second segment of a Compute2 batch
	target *Thread
	msg    Msg
	d      simtime.Duration
	file   fscache.FileID
	page   int64
	pages  int64

	// started marks multi-step requests (compute, sleep, I/O) that have
	// begun but not completed; stage is the Compute2 segment in flight.
	started bool
	stage   uint8
}

// resumeToken is sent kernel→thread; kill aborts the thread.
type resumeToken struct {
	kill bool
}

// killSentinel is the panic value used to unwind a killed thread.
type killSentinel struct{}

// Thread is a simulated thread of control. Application code runs in the
// body function on a dedicated goroutine, but the kernel and at most one
// thread ever execute at a time (strict channel handshake), so the
// simulation is deterministic and race-free.
type Thread struct {
	id   int
	name string
	proc ProcID
	prio int

	k        *Kernel
	body     func(tc *TC)
	resume   chan resumeToken
	requests chan request

	// loopFn, when non-nil, makes this a kernel-resident loop thread
	// (SpawnLoop): no goroutine, no handshake — fetch invokes loopFn in
	// simulator context and loopTC carries its one-request-per-call
	// context.
	loopFn func(lc *LoopTC) bool
	loopTC LoopTC

	// Bulk idle-skip state (engine.go). bulk non-nil enables per-cycle
	// cleanliness tracking and the elision of clean cycles.
	// cycle* fields observe the cycle in flight; sig* plus cycleSeg*
	// hold the canonical interrupt-free signature elision replays from.
	bulk          BulkLoop
	bulkClean     bool
	cycleStart    simtime.Time
	cycleD1       simtime.Duration
	cycleD2       simtime.Duration
	cycleSnap     [cpu.NumEventKinds]int64
	cycleDelta    [cpu.NumEventKinds]int64
	cycleSwitches uint64
	sigD1         simtime.Duration
	sigD2         simtime.Duration
	sigDelta      [cpu.NumEventKinds]int64
	sigClock      simtime.Hz
	cycleSeg      cpu.Segment
	cycleSeg2     cpu.Segment

	// affinity pins a loop thread to a logical CPU (multicore.go);
	// 0 means the scheduler core. lastCPU is where the thread's last
	// chunk ran, for charging the migration tax.
	affinity int
	lastCPU  int

	state    ThreadState
	readySeq uint64

	// pending is the in-flight request, if any; it points at reqSlot,
	// the thread's single preallocated request cell (requests are
	// strictly one at a time per thread).
	pending *request
	reqSlot request
	// remaining is unconsumed CPU time of the pending compute chunk.
	remaining simtime.Duration
	// runStart is when the current chunk last started consuming CPU.
	runStart simtime.Time
	// quantumLeft is the unexpired part of the timeslice.
	quantumLeft simtime.Duration

	// msgq is the thread's message queue.
	msgq []Msg
	// getCall is when a blocking GetMessage began waiting.
	getCall simtime.Time

	// ioReady flags completion of the pending synchronous I/O.
	ioReady bool
	// ioSpan is the open syscall span of the pending synchronous I/O.
	ioSpan spans.Handle
	// readyAt is when the thread last entered the ready queue; only
	// maintained while a span recorder is attached (scheduling delay).
	readyAt simtime.Time

	// Reply slots, valid after the corresponding request completes.
	replyMsg Msg
	replyOK  bool
}

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Proc returns the owning process.
func (t *Thread) Proc() ProcID { return t.proc }

// Priority returns the scheduling priority (higher runs first).
func (t *Thread) Priority() int { return t.prio }

// State returns the scheduler state.
func (t *Thread) State() ThreadState { return t.state }

// QueueLen returns the current message-queue length.
func (t *Thread) QueueLen() int { return len(t.msgq) }

// TC is the thread-side handle to kernel services; every method must be
// called from the thread's own body function.
type TC struct {
	t *Thread
	k *Kernel
}

// Thread returns the thread this context belongs to.
func (tc *TC) Thread() *Thread { return tc.t }

// Now returns the current simulated time. Reading it needs no yield: the
// kernel goroutine is parked while thread code runs.
func (tc *TC) Now() simtime.Time { return tc.k.now }

// Cycles reads the free-running cycle counter (a user-mode rdtsc).
func (tc *TC) Cycles() int64 { return tc.k.cpu.CycleAt(tc.k.now) }

// call performs the handshake for one request and blocks until the
// kernel completes it.
func (tc *TC) call(r request) {
	tc.t.requests <- r
	tok := <-tc.t.resume
	if tok.kill {
		panic(killSentinel{})
	}
}

// Compute consumes CPU according to seg, subject to scheduling: the call
// returns after the simulated machine has spent the segment's cost on
// this thread, however long that takes in elapsed simulated time.
func (tc *TC) Compute(seg cpu.Segment) {
	tc.call(request{kind: reqCompute, seg: seg})
}

// Compute2 consumes CPU for two segments back to back in one kernel
// request. Timing and memory-system effects are identical to two Compute
// calls — the second segment is costed the instant the first finishes —
// but the thread↔kernel handshake fires once instead of twice, which
// matters for instruments that compute on every sample.
func (tc *TC) Compute2(a, b cpu.Segment) {
	tc.call(request{kind: reqCompute2, seg: a, seg2: b})
}

// DomainCross models a protection-domain (address-space) crossing: TLB
// flush plus direct cost.
func (tc *TC) DomainCross() {
	tc.call(request{kind: reqDomainCross})
}

// ModeSwitch models a user/kernel mode switch in the same address space
// (no TLB flush) — the NT 4.0 in-kernel Win32 path.
func (tc *TC) ModeSwitch() {
	tc.call(request{kind: reqModeSwitch})
}

// GetMessage blocks until a message is available and returns it.
func (tc *TC) GetMessage() Msg {
	tc.call(request{kind: reqGetMessage})
	return tc.t.replyMsg
}

// PeekMessage returns the head message without blocking; ok reports
// whether one was available. The message is consumed, matching the
// PM_REMOVE usage the paper's applications rely on.
func (tc *TC) PeekMessage() (Msg, bool) {
	tc.call(request{kind: reqPeekMessage})
	return tc.t.replyMsg, tc.t.replyOK
}

// HasMessage reports whether the thread's queue is non-empty without
// consuming anything (PeekMessage with PM_NOREMOVE). It costs no time
// and is not logged by the monitor.
func (tc *TC) HasMessage() bool { return len(tc.t.msgq) > 0 }

// PendingUserInput reports whether further user-input messages are
// already queued behind the one being handled. The window system uses it
// to batch rendering requests when the input stream outruns the system —
// the §1.1 batching behaviour ("the system batches requests more
// aggressively" under an uninterrupted input stream).
func (tc *TC) PendingUserInput() bool {
	for _, m := range tc.t.msgq {
		if m.Kind.UserInput() {
			return true
		}
	}
	return false
}

// Post appends a message to target's queue.
func (tc *TC) Post(target *Thread, kind MsgKind, param int64) {
	tc.call(request{kind: reqPost, target: target, msg: Msg{Kind: kind, Param: param}})
}

// Forward re-posts a received message to target preserving its original
// Enqueued stamp, so latency measured from the hardware event survives
// system-internal routing (the Windows 95 mouse path).
func (tc *TC) Forward(target *Thread, msg Msg) {
	tc.call(request{kind: reqPost, target: target, msg: msg})
}

// Sleep blocks for at least d; with tick-aligned timers the wake rounds
// up to the next clock tick, like SetTimer on the real systems.
func (tc *TC) Sleep(d simtime.Duration) {
	tc.call(request{kind: reqSleep, d: d})
}

// ReadFile synchronously reads pages [page, page+pages) of file through
// the buffer cache, blocking until all pages are resident.
func (tc *TC) ReadFile(file fscache.FileID, page, pages int64) {
	tc.call(request{kind: reqReadFile, file: file, page: page, pages: pages})
}

// WriteFile synchronously writes pages [page, page+pages) of file
// through the buffer cache to the disk.
func (tc *TC) WriteFile(file fscache.FileID, page, pages int64) {
	tc.call(request{kind: reqWriteFile, file: file, page: page, pages: pages})
}

// ReadFileAsync starts a background read of pages [page, page+pages) and
// returns immediately; a message of the given kind is posted to this
// thread when all pages are resident. Asynchronous I/O does not count as
// outstanding synchronous I/O, so the think/wait FSM treats it as
// background activity — exactly the paper's Fig. 2 assumption.
func (tc *TC) ReadFileAsync(file fscache.FileID, page, pages int64, kind MsgKind, param int64) {
	k, t := tc.k, tc.t
	inline := true
	missing := k.cache.Read(file, page, pages, func(now simtime.Time, err error) {
		if err != nil {
			k.ioErrs++
		}
		if inline {
			return
		}
		k.raiseDiskInterrupt(func(simtime.Time) {
			k.deliver(t, Msg{Kind: kind, Param: param})
		})
	})
	inline = false
	if missing == 0 {
		// All pages were resident: complete immediately.
		k.deliver(t, Msg{Kind: kind, Param: param})
	}
}

// Yield surrenders the CPU to an equal-priority thread, if any.
func (tc *TC) Yield() {
	tc.call(request{kind: reqYield})
}

// SetTimer arranges for a message to be posted to this thread after d
// (tick-aligned when the kernel's timers are), like Win32 SetTimer. It
// consumes no time and does not block; the timer is dropped if the
// thread exits first.
func (tc *TC) SetTimer(d simtime.Duration, kind MsgKind, param int64) {
	k, t := tc.k, tc.t
	wake := k.now.Add(d)
	if k.cfg.TimersTickAligned {
		wake = k.NextTick(wake)
	}
	k.At(wake, func(now simtime.Time) {
		k.PostMessage(t, kind, param)
	})
}
