package core

import (
	"fmt"
	"testing"

	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// This file is the think/wait reference the probe's online FSM is held
// to: a recorder, installed as a kernel's hooks, that logs every firing
// of the four observation hooks in order, and the log-keeping FSM that
// replays what it logged. A kernel has one set of hooks, so a reference
// run is a second, deterministic run of the same workload. The idle
// elision proofs compare two recorders' logs directly, and a validation
// test that needs the ground-truth busy log reads it from here.

// hookKind names the observation hook a hookRecord came from.
type hookKind uint8

const (
	onBusy hookKind = iota
	onPost
	onMsgAPI
	onSyncIO
)

// hookRecord is one firing of a kernel observation hook.
type hookRecord struct {
	hook hookKind
	at   simtime.Time
	// thread is the post's target or the message-API caller.
	thread int
	// n is the FSM input: the queue length, the outstanding synchronous
	// I/O count, or 1 for busy and 0 for idle.
	n int
	// msg is the posted message, rec the message-API record.
	msg kernel.Msg
	rec trace.MsgRecord
}

// hookRecorder logs every hook firing of one kernel, in firing order.
type hookRecorder struct{ log []hookRecord }

// recordHooks installs a recorder as k's hooks and returns it.
func recordHooks(k *kernel.Kernel) *hookRecorder {
	r := &hookRecorder{}
	k.SetHooks(kernel.Hooks{
		OnBusy: func(busy bool, now simtime.Time) {
			r.log = append(r.log, busyAt(busy, now))
		},
		OnPost: func(target *kernel.Thread, msg kernel.Msg, now simtime.Time, qlen int) {
			r.log = append(r.log, hookRecord{hook: onPost, at: now, thread: target.ID(), n: qlen, msg: msg})
		},
		OnMsgAPI: func(rec trace.MsgRecord) {
			r.log = append(r.log, hookRecord{hook: onMsgAPI, at: rec.Return, thread: rec.Thread, n: rec.QueueLen, rec: rec})
		},
		OnSyncIO: func(n int, now simtime.Time) {
			r.log = append(r.log, hookRecord{hook: onSyncIO, at: now, n: n})
		},
	})
	return r
}

func busyAt(busy bool, now simtime.Time) hookRecord {
	r := hookRecord{hook: onBusy, at: now}
	if busy {
		r.n = 1
	}
	return r
}

// feed fires log's records, in order, into h; threads[i] is the thread
// with id i+1.
func feed(h kernel.Hooks, log []hookRecord, threads []*kernel.Thread) {
	for _, r := range log {
		switch r.hook {
		case onBusy:
			h.OnBusy(r.n == 1, r.at)
		case onPost:
			h.OnPost(threads[r.thread-1], r.msg, r.at, r.n)
		case onMsgAPI:
			rec := r.rec
			rec.Thread, rec.Return, rec.QueueLen = r.thread, r.at, r.n
			h.OnMsgAPI(rec)
		case onSyncIO:
			h.OnSyncIO(r.n, r.at)
		}
	}
}

// idleThreads returns n threads, with ids 1 to n, of a kernel that
// never runs: targets for feeding hook records to a probe.
func idleThreads(tb testing.TB, n int) []*kernel.Thread {
	k := kernel.New(quietConfig())
	tb.Cleanup(k.Shutdown)
	out := make([]*kernel.Thread, n)
	for i := range out {
		out[i] = k.Spawn(fmt.Sprintf("t%d", i+1), 1, 8, func(*kernel.TC) {})
	}
	return out
}

// phaseChange is one transition in the reference FSM's log.
type phaseChange struct {
	to Phase
	at simtime.Time
}

// refFSM is the log-keeping FSM the online one replaced: the same
// inputs and phases, with every net transition kept in a log.
type refFSM struct {
	cpuBusy          bool
	queueLen, syncIO int

	cur         Phase
	since       simtime.Time
	log         []phaseChange
	think, wait simtime.Duration
}

// replayReference feeds log to a fresh reference FSM in recorded
// order, the queue input from thread's posts and message-API calls
// only, and finishes it at end.
func replayReference(log []hookRecord, thread int, end simtime.Time) *refFSM {
	f := &refFSM{}
	for _, r := range log {
		switch r.hook {
		case onBusy:
			f.set(func() { f.cpuBusy = r.n == 1 }, r.at)
		case onPost, onMsgAPI:
			if r.thread == thread {
				f.set(func() { f.queueLen = r.n }, r.at)
			}
		case onSyncIO:
			f.set(func() { f.syncIO = r.n }, r.at)
		}
	}
	f.advance(end)
	return f
}

// set accrues time up to now, applies one input change and settles.
func (f *refFSM) set(change func(), now simtime.Time) {
	f.advance(now)
	change()
	if f.queueLen < 0 || f.syncIO < 0 {
		panic("reference FSM: negative input")
	}
	f.settle(now)
}

func (f *refFSM) advance(now simtime.Time) {
	if now < f.since {
		panic("reference FSM: time went backwards")
	}
	if f.cur == Think {
		f.think += now.Sub(f.since)
	} else {
		f.wait += now.Sub(f.since)
	}
	f.since = now
}

// settle logs a transition if the inputs imply a new phase, collapsing
// zero-duration flaps so the log holds net phase changes only.
func (f *refFSM) settle(now simtime.Time) {
	next := Think
	if f.cpuBusy || f.queueLen > 0 || f.syncIO > 0 {
		next = Wait
	}
	if next == f.cur {
		return
	}
	f.cur = next
	if n := len(f.log); n > 0 && f.log[n-1].at == now {
		f.log = f.log[:n-1]
		before := Think
		if n >= 2 {
			before = f.log[n-2].to
		}
		if before == next {
			return // net no-op at this instant
		}
	}
	f.log = append(f.log, phaseChange{to: next, at: now})
}

// partition reports how the log fails to split [0, end) into
// alternating think and wait spans, with strictly increasing instants,
// that accrue exactly the FSM's totals; "" when it does not fail.
func (f *refFSM) partition(end simtime.Time) string {
	if f.think+f.wait != simtime.Duration(end) {
		return fmt.Sprintf("think %v + wait %v = %v, want end %v", f.think, f.wait, f.think+f.wait, end)
	}
	var acc [2]simtime.Duration
	phase, since := Think, simtime.Time(0)
	for i, tr := range f.log {
		if tr.to == phase || (i > 0 && tr.at <= since) || tr.at > end {
			return fmt.Sprintf("transition %d %+v after %v at %v: not an alternating, increasing log within the run", i, tr, phase, since)
		}
		acc[phase] += tr.at.Sub(since)
		phase, since = tr.to, tr.at
	}
	acc[phase] += end.Sub(since)
	if acc[Think] != f.think || acc[Wait] != f.wait {
		return fmt.Sprintf("log accrues think %v / wait %v, FSM says %v / %v", acc[Think], acc[Wait], f.think, f.wait)
	}
	return ""
}

// sameAsReference reports how the online FSM f differs from ref in
// think, wait or transition count, or "" when they agree.
func sameAsReference(f *FSM, ref *refFSM) string {
	if f.ThinkTime() != ref.think || f.WaitTime() != ref.wait || f.Transitions() != len(ref.log) {
		return fmt.Sprintf("online think/wait/transitions %v/%v/%d, reference %v/%v/%d",
			f.ThinkTime(), f.WaitTime(), f.Transitions(), ref.think, ref.wait, len(ref.log))
	}
	return ""
}
