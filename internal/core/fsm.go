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

// PhaseChange is one FSM transition.
type PhaseChange struct {
	To Phase
	At simtime.Time
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
// complete FSM.
type FSM struct {
	cpuBusy  bool
	queueLen int
	syncIO   int

	cur         Phase
	since       simtime.Time
	transitions []PhaseChange
	think       simtime.Duration
	wait        simtime.Duration
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

// settle records a transition if the inputs imply a new phase.
// Zero-duration flaps — several inputs updated at the same instant — are
// collapsed so the log reflects net phase changes only.
func (f *FSM) settle(now simtime.Time) {
	next := f.phase()
	if next == f.cur {
		return
	}
	f.cur = next
	if n := len(f.transitions); n > 0 && f.transitions[n-1].At == now {
		f.transitions = f.transitions[:n-1]
		before := Think
		if n >= 2 {
			before = f.transitions[n-2].To
		}
		if before == next {
			return // net no-op at this instant
		}
	}
	f.transitions = append(f.transitions, PhaseChange{To: next, At: now})
}

// Finish accrues time through end and returns the totals.
func (f *FSM) Finish(end simtime.Time) (think, wait simtime.Duration) {
	f.advance(end)
	return f.think, f.wait
}

// Phase returns the current phase.
func (f *FSM) Phase() Phase { return f.cur }

// Transitions returns the transition log.
func (f *FSM) Transitions() []PhaseChange { return f.transitions }

// ThinkTime and WaitTime return the accrued totals (excluding time since
// the last input update; call Finish for final numbers).
func (f *FSM) ThinkTime() simtime.Duration { return f.think }

// WaitTime returns the accrued wait time.
func (f *FSM) WaitTime() simtime.Duration { return f.wait }

// DriveFSM replays a probe's logs (ground-truth CPU, posts and
// message-API records for the given thread, sync-I/O changes) through a
// fresh FSM and returns it, finished at end. This is the "additional
// system support" configuration; RunFSMFromMeasurement feeds measured CPU
// state instead.
//
// The replay is a streaming merge of the four logs, read in place. Each
// log is already non-decreasing in time: the kernel stamps every record
// with its clock as it writes it, and a message record's Return is that
// clock too. Records are fed in (time, kind, seq) order — busy changes
// first, then posts and messages, then sync-I/O changes, with seq the
// record's index in its own log (other threads included) and a post
// ahead of a message on a full tie. A log that ran backwards is never
// reordered: its late record reaches the FSM after a later one and
// panics there.
func DriveFSM(p *Probe, thread int, end simtime.Time) *FSM {
	f := NewFSM()
	b, q, m, s := 0, 0, 0, 0 // next unread Busy, Posts, Msgs, SyncIO record
	for {
		for q < len(p.Posts) && p.Posts[q].Thread != thread {
			q++
		}
		for m < len(p.Msgs) && p.Msgs[m].Thread != thread {
			m++
		}
		tb, tq, tm, ts := simtime.Never, simtime.Never, simtime.Never, simtime.Never
		if b < len(p.Busy) {
			tb = p.Busy[b].At
		}
		if q < len(p.Posts) {
			tq = p.Posts[q].At
		}
		if m < len(p.Msgs) {
			tm = p.Msgs[m].Return
		}
		if s < len(p.SyncIO) {
			ts = p.SyncIO[s].At
		}
		// The queue-kind head: the post or the message, whichever is first.
		post := q < len(p.Posts) && (m == len(p.Msgs) || tq < tm || tq == tm && q <= m)
		tQueue := tm
		if post {
			tQueue = tq
		}
		switch {
		case b < len(p.Busy) && tb <= tQueue && tb <= ts:
			f.SetCPU(p.Busy[b].Busy, tb)
			b++
		case post && tq <= ts:
			f.SetQueue(p.Posts[q].QueueLen, tq)
			q++
		case !post && m < len(p.Msgs) && tm <= ts:
			f.SetQueue(p.Msgs[m].QueueLen, tm)
			m++
		case s < len(p.SyncIO):
			f.SetSyncIO(p.SyncIO[s].Outstanding, ts)
			s++
		default:
			f.Finish(end)
			return f
		}
	}
}
