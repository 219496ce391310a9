package kernel

import (
	"fmt"

	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// ProcID identifies an address space. Switching the CPU between threads
// of different processes flushes the TLBs (untagged ones; a tagged TLB
// keeps its entries), which is how context-switch overhead reaches the
// latency numbers.
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
	reqExit
)

// request is one primitive invocation. It lives in the thread's reqSlot:
// a coroutine thread writes it there before it yields, and loop
// functions arm it in place.
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

// killSentinel is the panic value used to unwind a killed thread.
type killSentinel struct{}

// threadPanic carries a panic out of a coroutine thread's body to the
// kernel, with the stack of the body that panicked.
type threadPanic struct {
	value any
	stack []byte
}

// Thread is a simulated thread of control. Its requests come from one of
// three sources, each consulted in fetchInto at the instant the thread
// is to run on: a body function run as a coroutine (Spawn), a loop
// function the kernel calls in simulator context (SpawnLoop), or a loop
// function a coroutine thread lends the kernel for a run of primitives
// (TC.Loop). A coroutine runs only between the kernel's resume and its
// yield, so the kernel and at most one body ever execute at a time, and
// the simulation is deterministic and race-free.
type Thread struct {
	id   int
	name string
	proc ProcID
	prio int

	k *Kernel
	// next and stop drive a coroutine thread's body; both are nil for a
	// SpawnLoop thread. next runs the body up to its next primitive,
	// which it has written into reqSlot, and reports false once the body
	// has returned, or has panicked and left its panic in panicked. stop
	// unwinds a body parked in a primitive.
	next     func() (struct{}, bool)
	stop     func()
	panicked *threadPanic

	// loopFn, when non-nil, is the thread's kernel-resident request
	// source: fetchInto calls it in simulator context with loopTC, with
	// no resume. A SpawnLoop thread's loop is its whole life; a
	// coroutine thread sets one for the span of a TC.Loop call.
	loopFn func(lc *LoopTC) bool
	loopTC LoopTC

	// bulk, non-nil once SetBulkLoop registers a delegate, enables the
	// elision of the thread's cycles whose pages are resident
	// (engine.go).
	bulk *bulkState

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

	// wakeFn is the thread's sleep wakeup callback (sleep), bound on
	// its first Sleep.
	wakeFn func(now simtime.Time)

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

// QuantumLeft returns the unexpired part of the thread's timeslice.
func (t *Thread) QuantumLeft() simtime.Duration { return t.quantumLeft }

// TC is the thread-side handle to kernel services; every method must be
// called from the thread's own body function.
type TC struct {
	t *Thread
	k *Kernel
	// yield parks the body until the kernel resumes it; it returns false
	// when the kernel stops the thread instead.
	yield func(struct{}) bool
}

// Thread returns the thread this context belongs to.
func (tc *TC) Thread() *Thread { return tc.t }

// Now returns the current simulated time. Reading it needs no yield: the
// kernel waits while thread code runs.
func (tc *TC) Now() simtime.Time { return tc.k.now }

// Cycles reads the free-running cycle counter (a user-mode rdtsc).
func (tc *TC) Cycles() int64 { return tc.k.cpu.CycleAt(tc.k.now) }

// call hands one request to the kernel and blocks until the kernel has
// completed it and resumes the thread: one coroutine round trip.
func (tc *TC) call(r request) {
	tc.t.reqSlot = r
	tc.handoff()
}

// handoff yields to the kernel, waiting in fetchInto, with the thread's
// next request in reqSlot, and parks until the kernel resumes the
// thread. A stopped thread unwinds from here.
func (tc *TC) handoff() {
	if !tc.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// Loop lends the kernel fn as the thread's request source for a run of
// reply-free primitives, so the run costs one coroutine round trip
// instead of one per primitive. Each call of fn records one primitive
// on lc and returns true, or returns false to end the run. Its first
// call runs here, on the thread; every later call runs in simulator
// context at the instant the kernel would otherwise have resumed the
// thread after the previous primitive. The request stream, and with it
// the whole simulation, is therefore exactly that of the same primitives
// issued one by one, and fn sees the same Now and the same message
// queue. Loop returns once fn has returned false. The thread is parked
// while fn runs, so fn may use the thread's own variables, but it must
// not call TC methods.
func (tc *TC) Loop(fn func(lc *LoopTC) bool) {
	t := tc.t
	if !t.loopTC.next(fn) {
		return
	}
	t.loopFn = fn
	tc.handoff()
}

// Compute consumes CPU according to seg, subject to scheduling: the call
// returns after the simulated machine has spent the segment's cost on
// this thread, however long that takes in elapsed simulated time.
func (tc *TC) Compute(seg cpu.Segment) {
	tc.call(request{kind: reqCompute, seg: seg})
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
func (tc *TC) PendingUserInput() bool { return tc.t.pendingUserInput() }

func (t *Thread) pendingUserInput() bool {
	for _, m := range t.msgq {
		if m.Kind.UserInput() {
			return true
		}
	}
	return false
}

// Forward re-posts a received message to target preserving its original
// Enqueued stamp, so latency measured from the hardware event survives
// system-internal routing (the Windows 95 mouse path).
func (tc *TC) Forward(target *Thread, msg Msg) {
	tc.call(request{kind: reqPost, target: target, msg: msg})
}

// Sleep blocks for at least d; the wake rounds up to the next clock
// tick, like SetTimer on the real systems.
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

// SetTimer arranges for a message to be posted to this thread at the
// first clock tick at least d from now, like Win32 SetTimer. It
// consumes no time and does not block; the timer is dropped if the
// thread exits first.
func (tc *TC) SetTimer(d simtime.Duration, kind MsgKind, param int64) {
	k, t := tc.k, tc.t
	k.At(k.NextTick(k.now.Add(d)), func(now simtime.Time) {
		k.PostMessage(t, kind, param)
	})
}
