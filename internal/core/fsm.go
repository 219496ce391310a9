package core

import "latlab/internal/simtime"

// Phase classifies an interval of a user session (paper §2.3).
type Phase uint8

// Phases.
const (
	// Think: the user is neither making requests nor waiting — CPU idle,
	// message queue empty, no synchronous I/O outstanding.
	Think Phase = iota
	// Wait: the system is responding to a request the user is waiting
	// for — the CPU is busy, or input is queued, or synchronous I/O is
	// pending. Per the paper, we assume the user waits for every event.
	Wait
)

// String names the phase.
func (p Phase) String() string {
	if p == Think {
		return "think"
	}
	return "wait"
}

// FSM is the think-time/wait-time state machine of the paper's Fig. 2.
// Its inputs are the three observables the paper identifies: CPU state
// (busy/idle), message-queue state (empty/non-empty), and outstanding
// synchronous I/O. Asynchronous I/O is assumed to be background activity
// and is not an input.
//
// The paper notes that full implementation "requires additional system
// support for monitoring I/O and message queue state transitions"; the
// simulated kernel provides exactly those hooks, so latlab implements the
// complete FSM, online: a Probe feeds it each input as its hook fires.
// It keeps the totals and a transition count, so its state stays the
// same size however long the session runs.
type FSM struct {
	cpuBusy  bool
	queueLen int
	syncIO   int

	cur   Phase
	since simtime.Time
	think simtime.Duration
	wait  simtime.Duration
	// transitions counts net phase changes; lastAt is the instant of
	// the last one counted, or -1 once a same-instant change undid it.
	transitions int
	lastAt      simtime.Time
}

// NewFSM returns an FSM in the Think state at time 0.
func NewFSM() *FSM {
	return &FSM{cur: Think}
}

// phase computes the state for the current inputs.
func (f *FSM) phase() Phase {
	if f.cpuBusy || f.queueLen > 0 || f.syncIO > 0 {
		return Wait
	}
	return Think
}

// SetCPU updates the CPU input at time now.
func (f *FSM) SetCPU(busy bool, now simtime.Time) {
	f.advance(now)
	f.cpuBusy = busy
	f.settle(now)
}

// SetQueue updates the message-queue length input at time now.
func (f *FSM) SetQueue(n int, now simtime.Time) {
	if n < 0 {
		panic("core: negative queue length")
	}
	f.advance(now)
	f.queueLen = n
	f.settle(now)
}

// SetSyncIO updates the outstanding synchronous I/O input at time now.
func (f *FSM) SetSyncIO(n int, now simtime.Time) {
	if n < 0 {
		panic("core: negative sync I/O count")
	}
	f.advance(now)
	f.syncIO = n
	f.settle(now)
}

// advance accrues time in the current phase up to now.
func (f *FSM) advance(now simtime.Time) {
	if now < f.since {
		panic("core: FSM time went backwards")
	}
	d := now.Sub(f.since)
	if f.cur == Think {
		f.think += d
	} else {
		f.wait += d
	}
	f.since = now
}

// settle counts a transition if the inputs imply a new phase.
// Zero-duration flaps — several inputs updated at the same instant — are
// collapsed so the count is of net phase changes only. With two phases a
// change at the instant of the last counted transition undoes it, and no
// earlier counted transition shares that instant, so the undo leaves no
// transition at now.
func (f *FSM) settle(now simtime.Time) {
	next := f.phase()
	if next == f.cur {
		return
	}
	f.cur = next
	if f.transitions > 0 && f.lastAt == now {
		f.transitions--
		f.lastAt = -1
		return
	}
	f.transitions++
	f.lastAt = now
}

// Finish accrues time through end and returns the totals.
func (f *FSM) Finish(end simtime.Time) (think, wait simtime.Duration) {
	f.advance(end)
	return f.think, f.wait
}

// Phase returns the current phase.
func (f *FSM) Phase() Phase { return f.cur }

// Transitions returns the number of net phase changes so far.
func (f *FSM) Transitions() int { return f.transitions }

// ThinkTime and WaitTime return the accrued totals (excluding time since
// the last input update; call Finish for final numbers).
func (f *FSM) ThinkTime() simtime.Duration { return f.think }

// WaitTime returns the accrued wait time.
func (f *FSM) WaitTime() simtime.Duration { return f.wait }
