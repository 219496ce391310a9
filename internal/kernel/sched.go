package kernel

import (
	"fmt"
	"runtime/debug"

	"latlab/internal/simtime"
	"latlab/internal/spans"
	"latlab/internal/trace"
)

// reconcile is the scheduler's single entry point: after any state change
// (wakeup, interrupt, completion, spawn) it re-establishes the invariant
// that either the CPU is stolen by interrupt handlers (with a reconcile
// event pending at stolenUntil), or the best-priority runnable thread is
// current with its chunk's completion armed beside the queue, or nothing
// is runnable.
//
// It is guarded against reentrancy: hooks and thread steps can trigger
// nested calls, which are absorbed into the outer loop.
func (k *Kernel) reconcile() {
	if k.inReconcile {
		k.reconcileAgain = true
		return
	}
	k.inReconcile = true
	defer func() { k.inReconcile = false }()

	for iter := 0; ; iter++ {
		if iter > 1_000_000 {
			panic("kernel: reconcile livelock — a thread is spinning without consuming time")
		}
		k.reconcileAgain = false

		// Interrupt handlers own the CPU; they scheduled a reconcile at
		// stolenUntil.
		if k.now < k.stolenUntil {
			break
		}

		// Preemption: a higher-priority ready thread displaces current.
		if best := k.peekBest(); best != nil && k.current != nil && best.prio > k.current.prio {
			k.pauseCurrent()
			prev := k.current
			k.current = nil
			k.makeReady(prev)
		}

		if k.current == nil {
			t := k.popBest()
			if t == nil {
				break // nothing runnable at all
			}
			if k.rec != nil && t.prio > IdlePriority && t.readyAt != 0 && k.now.After(t.readyAt) {
				k.rec.ChargeSpan(spans.CauseSchedDelay, t.name, t.readyAt, k.now, 0, 0)
			}
			t.state = StateRunning
			t.quantumLeft = Quantum
			k.current = t
		}

		t := k.current
		if t.remaining > 0 {
			if !k.chunkArmed && !k.startChunk(t) {
				continue // context-switch charge or quantum requeue
			}
			if k.reconcileAgain {
				continue
			}
			break
		}

		// The pending request needs an instantaneous step.
		k.step(t)
	}
	k.updateBusy()
}

// startChunk gives the CPU to t for min(remaining, quantum), arming the
// chunk's completion beside the queue: its instant, and the sequence
// number the queue would give its next event, which fixes where the
// completion falls among queued events due at the same instant (see
// Run). Nothing is queued, so the queue's sequence counter does not
// move. It returns false when the chunk could not start yet: a
// context-switch charge stole the CPU (a reconcile event is pending), or
// the quantum expired and t was requeued behind an equal-priority peer.
func (k *Kernel) startChunk(t *Thread) bool {
	if t != k.lastRun {
		var ch spans.Handle
		if k.rec != nil {
			ch = k.rec.Begin(spans.CauseCtxSwitch, t.name)
		}
		if k.lastRun != nil && k.lastRun.proc != t.proc {
			k.cpu.Mem.FlushTLBs()
		}
		k.lastRun = t
		if _, d := k.cpu.Execute(&k.cfg.ContextSwitch); d > 0 {
			k.steal(d)
			k.rec.EndAt(ch, k.stolenUntil)
			return false
		}
		k.rec.End(ch)
	}
	if t.quantumLeft <= 0 {
		if k.hasReadyAtPrio(t.prio) {
			k.current = nil
			k.makeReady(t)
			return false
		}
		t.quantumLeft = Quantum
	}
	runFor := t.remaining
	if t.quantumLeft < runFor {
		runFor = t.quantumLeft
	}
	t.runStart = k.now
	k.chunkArmed, k.chunkEnd, k.chunkSeq = true, k.now.Add(runFor), k.q.NextSeq()
	return true
}

// completeChunk runs when the current thread's chunk (or quantum) ends:
// Run calls it at chunkEnd, in the chunk's place in the event order.
func (k *Kernel) completeChunk() {
	k.chunkArmed = false
	t := k.current
	if t == nil {
		return
	}
	k.accountRun(t, k.now)
	if t.remaining > 0 && t.quantumLeft <= 0 && k.hasReadyAtPrio(t.prio) {
		k.current = nil
		k.makeReady(t)
	}
	k.reconcile()
}

// pauseCurrent stops the running chunk, banking its progress and
// disarming its completion, so the CPU can be stolen or switched.
func (k *Kernel) pauseCurrent() {
	if k.current == nil || !k.chunkArmed {
		return
	}
	k.chunkArmed = false
	k.accountRun(k.current, k.now)
}

func (k *Kernel) accountRun(t *Thread, now simtime.Time) {
	ran := now.Sub(t.runStart)
	t.runStart = now
	t.remaining -= ran
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.quantumLeft -= ran
}

// steal gives the CPU to kernel-internal work (interrupt handler,
// context switch) for d, queueing behind any steal in progress, and
// arranges a reconcile when the CPU is free again.
func (k *Kernel) steal(d simtime.Duration) {
	start := k.now
	if k.stolenUntil > start {
		start = k.stolenUntil
	}
	k.stolenUntil = start.Add(d)
	k.q.Schedule(k.stolenUntil, k.reconcileFn)
}

// peekBest returns the best ready thread without removing it.
func (k *Kernel) peekBest() *Thread {
	var best *Thread
	for _, t := range k.ready {
		if best == nil || t.prio > best.prio || (t.prio == best.prio && t.readySeq < best.readySeq) {
			best = t
		}
	}
	return best
}

// popBest removes and returns the best ready thread.
func (k *Kernel) popBest() *Thread {
	best := k.peekBest()
	if best == nil {
		return nil
	}
	for i, t := range k.ready {
		if t == best {
			k.ready = append(k.ready[:i], k.ready[i+1:]...)
			break
		}
	}
	return best
}

// hasReadyAtPrio reports whether some ready thread shares priority p.
func (k *Kernel) hasReadyAtPrio(p int) bool {
	for _, t := range k.ready {
		if t.prio == p {
			return true
		}
	}
	return false
}

// fetchInto obtains t's next request, writing it into t.reqSlot, at
// the instant t is to run on. A loop function, when the thread has one
// (SpawnLoop, or a coroutine thread inside TC.Loop), is called directly
// in simulator context and arms t.reqSlot in place: no resume, and the
// large two-segment request is never copied on this hot path. A
// coroutine thread whose lent loop is spent, or that has none, is
// resumed, and runs until it yields its next request (the kernel waits
// here while thread code runs); a body that returns has exited. A panic
// in its body or lent loop is raised again here, on the caller of Run,
// naming the thread; a SpawnLoop function already runs there.
func (k *Kernel) fetchInto(t *Thread) {
	if t.loopFn != nil {
		if t.next == nil {
			if !t.loopTC.next(t.loopFn) {
				t.reqSlot = request{kind: reqExit}
			}
			return
		}
		if k.nextFromLent(t) {
			return
		}
		t.loopFn = nil // the lent loop is spent: TC.Loop returns
	}
	k.resumes++
	if _, ok := t.next(); !ok {
		if p := t.panicked; p != nil {
			k.threadPanicked(t, p.value, p.stack)
		}
		t.reqSlot = request{kind: reqExit}
	}
}

// nextFromLent calls the loop function coroutine thread t lent with
// TC.Loop for its next request and reports whether it issued one.
func (k *Kernel) nextFromLent(t *Thread) bool {
	defer func() {
		if r := recover(); r != nil {
			k.threadPanicked(t, r, debug.Stack())
		}
	}()
	return t.loopTC.next(t.loopFn)
}

// threadPanicked ends coroutine thread t, whose body or lent loop
// panicked with value, and panics again on the caller of Run naming the
// thread. A thread whose lent loop panicked is still parked in TC.Loop,
// so stop unwinds it; one whose body panicked has already returned, and
// stop does nothing.
func (k *Kernel) threadPanicked(t *Thread, value any, stack []byte) {
	t.stop()
	t.state = StateDone
	t.pending = nil
	if k.current == t {
		k.current = nil
	}
	msg := fmt.Sprintf("kernel: thread %s panicked: %v", t.name, value)
	if len(stack) > 0 {
		msg += "\n\n" + string(stack)
	}
	panic(msg)
}

// step advances the current thread's instantaneous state: it fetches the
// next request if none is pending, then processes it. Processing may
// consume no simulated time (Post, Peek), set up a compute chunk, or
// block the thread.
func (k *Kernel) step(t *Thread) {
	if t != k.current {
		panic("kernel: stepping a non-current thread")
	}
	if t.pending == nil {
		// The request lives in a per-thread slot rather than a fresh
		// heap allocation: requests arrive one at a time per thread, so
		// the slot is free whenever pending is nil.
		k.fetchInto(t)
		t.pending = &t.reqSlot
		if t.bulk != nil {
			// The request is pending but untouched: the cleanest point
			// to elide provably-identical idle cycles.
			k.tryBulkSkip(t)
		}
	}
	k.process(t)
}

// process advances t.pending. It is re-entered after blocking requests
// unblock, so every arm must be idempotent with respect to `started`.
func (k *Kernel) process(t *Thread) {
	r := t.pending
	switch r.kind {
	case reqCompute:
		if !r.started {
			r.started = true
			if _, d := k.cpu.Execute(&r.seg); d > 0 {
				t.remaining = d
				return
			}
		}
		t.pending = nil

	case reqCompute2:
		// Two segments in one request: the second is costed the instant
		// the first finishes consuming CPU, exactly as two back-to-back
		// Compute calls would be, but without fetching a request in
		// between. The idle-loop instrument uses this so its sampling
		// costs one fetch per record, not two.
		for {
			if r.started {
				if r.stage == 1 {
					if t.bulk != nil {
						k.noteBulkCycle(t)
					}
					t.pending = nil
					return
				}
				r.stage = 1
				r.started = false
			}
			r.started = true
			seg := &r.seg
			if r.stage == 1 {
				seg = &r.seg2
			}
			_, d := k.cpu.Execute(seg)
			if b := t.bulk; b != nil {
				// A bulk-tracked cycle is observed for the recency it
				// leaves (noteBulkCycle): when its first segment was
				// costed, and the CPU time both were costed at.
				if r.stage == 0 {
					b.cycleStart, b.cycleRan = k.now, d
				} else {
					b.cycleRan += d
				}
			}
			if d > 0 {
				t.remaining = d
				return
			}
		}

	case reqDomainCross:
		if !r.started {
			r.started = true
			if _, d := k.cpu.DomainCross(); d > 0 {
				t.remaining = d
				return
			}
		}
		t.pending = nil

	case reqModeSwitch:
		if !r.started {
			r.started = true
			if d := k.cpu.DurationOf(k.cfg.ModeSwitchCycles); d > 0 {
				if k.rec != nil {
					k.rec.ChargeSpan(spans.CauseModeSwitch, t.name, k.now, k.now.Add(d), k.cfg.ModeSwitchCycles, 1)
				}
				t.remaining = d
				return
			}
		}
		t.pending = nil

	case reqGetMessage:
		if len(t.msgq) > 0 {
			msg := t.msgq[0]
			t.msgq = t.msgq[1:]
			t.replyMsg, t.replyOK = msg, true
			call := k.now
			if r.started { // the call blocked earlier
				call = t.getCall
			}
			k.logMsgAPI(trace.MsgRecord{
				API: trace.GetMessage, Call: call, Return: k.now,
				Received: true, Kind: int(msg.Kind), Enqueued: msg.Enqueued,
				QueueLen: len(t.msgq), Thread: t.id,
			})
			t.pending = nil
			return
		}
		if !r.started {
			r.started = true
			t.getCall = k.now
			// Log the blocking call itself: the monitor sees the
			// application "prepared to accept a new event" (§2.4) even
			// if this call never returns.
			k.logMsgAPI(trace.MsgRecord{
				API: trace.GetMessage, Call: k.now, Return: k.now,
				Received: false, QueueLen: 0, Thread: t.id,
			})
		}
		t.state = StateBlockedMsg
		k.current = nil

	case reqPeekMessage:
		t.replyOK = len(t.msgq) > 0
		rec := trace.MsgRecord{
			API: trace.PeekMessage, Call: k.now, Return: k.now,
			Received: t.replyOK, QueueLen: len(t.msgq), Thread: t.id,
		}
		if t.replyOK {
			msg := t.msgq[0]
			t.msgq = t.msgq[1:]
			t.replyMsg = msg
			rec.Kind = int(msg.Kind)
			rec.Enqueued = msg.Enqueued
			rec.QueueLen = len(t.msgq)
		} else {
			t.replyMsg = Msg{}
		}
		k.logMsgAPI(rec)
		t.pending = nil

	case reqPost:
		k.deliver(r.target, r.msg)
		t.pending = nil

	case reqSleep:
		if !r.started {
			r.started = true
			k.sleep(t, r.d)
			k.current = nil
			return
		}
		t.pending = nil

	case reqReadFile:
		if !r.started {
			r.started = true
			t.ioReady = false
			if k.rec != nil {
				// The span opens before the cache lookup so hit/miss and
				// disk spans nest inside the syscall.
				t.ioSpan = k.rec.Begin(spans.CauseSyscall, "ReadFile")
			}
			inline := true
			missing := k.cache.Read(r.file, r.page, r.pages, func(now simtime.Time, err error) {
				if err != nil {
					k.ioErrs++
				}
				if inline {
					return // all pages hit; no block happened
				}
				k.raiseDiskInterrupt(func(now2 simtime.Time) {
					t.ioReady = true
					k.setSyncIO(k.syncIO - 1)
					k.wake(t)
				})
			})
			inline = false
			if missing == 0 {
				k.rec.End(t.ioSpan)
				t.ioSpan = spans.Handle{}
				t.pending = nil
				return
			}
			k.setSyncIO(k.syncIO + 1)
			t.state = StateBlockedIO
			k.current = nil
			return
		}
		if !t.ioReady {
			// Spuriously re-processed; stay blocked.
			t.state = StateBlockedIO
			k.current = nil
			return
		}
		k.rec.End(t.ioSpan)
		t.ioSpan = spans.Handle{}
		t.pending = nil

	case reqWriteFile:
		if !r.started {
			r.started = true
			t.ioReady = false
			if k.rec != nil {
				t.ioSpan = k.rec.Begin(spans.CauseSyscall, "WriteFile")
			}
			k.cache.Write(r.file, r.page, r.pages, func(now simtime.Time, err error) {
				if err != nil {
					k.ioErrs++
				}
				k.raiseDiskInterrupt(func(now2 simtime.Time) {
					t.ioReady = true
					k.setSyncIO(k.syncIO - 1)
					k.wake(t)
				})
			})
			k.setSyncIO(k.syncIO + 1)
			t.state = StateBlockedIO
			k.current = nil
			return
		}
		if !t.ioReady {
			t.state = StateBlockedIO
			k.current = nil
			return
		}
		k.rec.End(t.ioSpan)
		t.ioSpan = spans.Handle{}
		t.pending = nil

	case reqExit:
		if k.epOpen && k.epThread == t.id {
			k.rec.EndAt(k.episode, k.now)
			k.epOpen = false
		}
		t.pending = nil
		t.state = StateDone
		k.current = nil

	default:
		panic(fmt.Sprintf("kernel: unknown request kind %d", r.kind))
	}
}

// sleep parks t for at least d and arms its wakeup — at now+d, rounded
// up to the next clock tick. The scheduler
// core and the aux cores share it. The wakeup is the thread's one wake
// callback, bound on its first sleep: a thread sleeps once at a time, so
// one callback serves every Sleep it issues, and it wakes the thread
// only if the thread is still sleeping.
func (k *Kernel) sleep(t *Thread, d simtime.Duration) {
	wake := k.NextTick(k.now.Add(d))
	t.state = StateSleeping
	if t.wakeFn == nil {
		t.wakeFn = func(simtime.Time) {
			if t.state == StateSleeping {
				k.wake(t)
			}
		}
	}
	k.At(wake, t.wakeFn)
}

func (k *Kernel) logMsgAPI(rec trace.MsgRecord) {
	if k.rec != nil {
		k.noteMsgAPI(rec)
	}
	if k.hooks.OnMsgAPI != nil {
		k.hooks.OnMsgAPI(rec)
	}
}

// noteMsgAPI maintains the episode span across message-API activity: an
// episode runs from a user-input message's hardware enqueue to the
// handling thread's next message-API call — the instant the application
// "prepared to accept a new event" (paper §2.4). Episodes never nest;
// retrieving fresh user input while one is open closes it.
func (k *Kernel) noteMsgAPI(r trace.MsgRecord) {
	input := r.Received && MsgKind(r.Kind).UserInput()
	if k.epOpen && (r.Thread == k.epThread || input) {
		k.rec.EndAt(k.episode, k.now)
		k.epOpen = false
	}
	if input {
		label := MsgKind(r.Kind).String()
		k.episode = k.rec.BeginAt(spans.CauseEpisode, label, r.Enqueued)
		// The wait between hardware enqueue and retrieval is the latency
		// component Fig. 1's API-only measurement misses.
		k.rec.ChargeSpan(spans.CauseQueueWait, label, r.Enqueued, k.now, 0, 0)
		k.epThread = r.Thread
		k.epOpen = true
	}
}

func (k *Kernel) setSyncIO(n int) {
	k.syncIO = n
	if k.hooks.OnSyncIO != nil {
		k.hooks.OnSyncIO(n, k.now)
	}
}
