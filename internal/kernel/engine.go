package kernel

import (
	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/simtime"
)

// Engine is empty and nothing reads it: the kernel has one engine, the
// event queue with analytic idle elision.
//
// Deprecated: kept only because the benchmark module (bench/) still
// names it; it goes when that module stops doing so.
type Engine struct{}

// BatchedEngine returns the empty Engine.
//
// Deprecated: the batched engine is the only engine; see Engine.
func BatchedEngine() Engine { return Engine{} }

// BulkLoop is implemented by an idle-class instrument whose compute
// cycles may be elided analytically. OnBulk informs the instrument that
// n whole cycles of the given duration, starting at start, completed
// without simulation; the instrument must account the samples those
// cycles would have recorded (the idle loop folds them into its busy
// spans, in O(1) where it can) and roll its internal cycle-start state
// forward by n cycles. A span that crosses clock ticks calls OnBulk once
// per run of cycles between ticks and once, with n = 1, for each cycle a
// tick's handler stretched, in time order. An instrument that stores
// nothing per sample puts no bound on a span.
type BulkLoop interface {
	OnBulk(n int64, start simtime.Time, cycle simtime.Duration)
}

// SetBulkLoop registers b as the thread's bulk-elision delegate. Only
// meaningful for idle-class loop threads driving Compute2 cycles: the
// kernel may then elide the thread's cycles whose pages are resident
// (tryBulkSkip). A traced kernel (SetRecorder) never elides: every cycle
// it runs is simulated, which makes it the oracle the elision tests
// compare against.
func (t *Thread) SetBulkLoop(b BulkLoop) { t.bulk = &bulkState{loop: b} }

// bulkState is a bulk-tracked thread's elision state, which only the
// thread SetBulkLoop registered carries. recency is what the thread
// knows of the front of the TLB and L2 recency order (settleRecency);
// cycleStart and cycleRan observe the simulated cycle in flight: when
// its first segment was costed, and the CPU time its segments were
// costed at so far.
type bulkState struct {
	loop       BulkLoop
	recency    recency
	cycleStart simtime.Time
	cycleRan   simtime.Duration
}

// ProvablyIdle reports whether the machine is provably idle at this
// instant: the CPU is not stolen by interrupt handlers, no thread is
// waiting on the ready queue, and the running thread (if any) is
// idle-class. In this state the future is fully determined by the event
// queue, the clock tick and the idle thread's own chunks — every fault
// injection, timer, wakeup, and device completion arrives as a queued
// event — which is what makes analytic idle-span elision sound: nothing
// but ticks can happen strictly before the queue's next event.
//
// An idle-class peer sitting on the ready queue defeats the proof:
// quantum round-robin between idle peers consumes scheduler state, so
// those spans are simulated honestly.
func (k *Kernel) ProvablyIdle() bool {
	return k.now >= k.stolenUntil && len(k.ready) == 0 &&
		(k.current == nil || k.current.prio == IdlePriority)
}

// noteBulkCycle records a simulated Compute2 cycle of a bulk-tracked
// thread as it completes: it counts the cycle, and keeps the recency
// order it leaves. A cycle that ran exactly the CPU time its two
// segments were costed at was undisturbed: no interrupt, steal or
// preemption came between or after its segments' touches, so their
// pages lead the recency order, as another such cycle leaves them. Any
// other cycle may leave a handler's pages among or ahead of them.
func (k *Kernel) noteBulkCycle(t *Thread) {
	b := t.bulk
	k.cyclesSimulated++
	switch {
	case k.now.Sub(b.cycleStart) != b.cycleRan:
		b.recency = recencyStale
	case b.recency == recencyStale:
		b.recency = recencyCycle
	}
}

// recency is what an idle-loop thread knows of the front of the TLB and
// L2 recency order, the entries its cycles and the tick handler touch
// (settleRecency).
type recency uint8

const (
	// recencyStale: a handler's pages may lie between or ahead of the
	// cycle segments' pages.
	recencyStale recency = iota
	// recencyCycle: the segments' pages lead, as an undisturbed cycle
	// leaves them; another such cycle changes nothing.
	recencyCycle
	// recencyTick: the segments' pages lead with the tick handler's
	// right behind them, as undisturbed cycles after a crossed tick
	// leave them; neither such a cycle nor a span that crosses ticks
	// and elides cycles after the last changes anything.
	recencyTick
)

// tryBulkSkip elides as many whole idle cycles as provably fit before
// the next event that is not a clock tick, crossing the ticks in
// between. Called from step immediately after fetching a bulk-tracked
// thread's next request — the request is pending but not started, so
// skipping cycles and then processing the request is indistinguishable
// from simulating them and fetching the request afresh (the fetch is
// stateless for loop threads).
//
// A cycle is priced from residency, not observed: when the machine is
// provably idle, no context switch is due (the thread ran last, so
// startChunk charges no switch and flushes no TLB after the first
// segment is costed) and every page and chunk of both segments is
// resident, each cycle costs exactly WarmCycles per segment at the
// current clock, adds only the segments' own counters, and only
// reorders recency. Nothing else touches memory before the span ends,
// so the pages stay resident throughout.
//
// A span is a run of pieces: n whole cycles that end strictly before
// the next tick (elide), then the cycle that tick lands in, stretched by
// its handler (crossTick), and again, until the next event that is not
// a tick or the Run horizon. A tick whose governor step changes the
// clock re-prices the cycles after it. Whatever cannot be crossed ends
// the span, and the cycle it falls in is simulated honestly: that
// straddling cycle is the sample that detects the tick or interrupt,
// exactly as the paper's methodology requires.
//
// Exactness contract: the span leaves the machine exactly as the slow
// path would, at every Run boundary:
//   - counters: the segments' own counters per cycle, plus the
//     handler's, with Interrupts +1, per crossed tick (misses are zero
//     by residency);
//   - the clock, ClockTicks, the governor's level and busy mark, the
//     tick-jitter draws, and the queue's sequence counter: a crossed
//     tick reserves the two numbers the slow path takes, its handler's
//     reconcile and its re-arm, so every later event's (at, seq) key is
//     unchanged. A simulated cycle queues nothing — each chunk's
//     completion is armed beside the queue (Run);
//   - busy accounting: busyAcc and stolenUntil, with OnBusy(true) at
//     the tick and OnBusy(false) at its handler's end, Now() advanced
//     to each instant before its hook fires;
//   - the thread's quantum and the instrument's samples (OnBulk);
//   - the TLB and L2 recency order (settleRecency), which no counter
//     shows until an eviction reaches the entries that differ.
func (k *Kernel) tryBulkSkip(t *Thread) {
	if k.rec != nil || k.shutdown {
		return
	}
	r := t.pending
	if r == nil || r.kind != reqCompute2 || r.started || r.stage != 0 {
		return
	}
	if t != k.current || t != k.lastRun || k.chunkArmed || !k.ProvablyIdle() {
		return
	}
	m := k.cpu.Mem
	if !m.Resident(r.seg.CodePages, r.seg.DataPages, r.seg.CacheChunks) ||
		!m.Resident(r.seg2.CodePages, r.seg2.DataPages, r.seg2.CacheChunks) {
		return
	}
	s := bulkSpan{r: r, c1: k.cpu.WarmCycles(&r.seg), c2: k.cpu.WarmCycles(&r.seg2)}
	if s.c1+s.c2 <= 0 {
		return
	}
	// Every cycle of the span ends strictly before the next queued
	// event AND no later than the current Run's horizon. The slow path
	// completes every cycle whose last chunk completes at or before
	// `until` within this Run call, stops the clock at `until` exactly,
	// and finishes the straddling cycle in a later Run — so the clamp
	// (horizon + 1 makes the bound inclusive) is what keeps Run's return
	// value and the machine state at every Run boundary byte-identical.
	// Crossing a tick schedules nothing, so the limit holds for the
	// whole span.
	limit := k.q.NextTime()
	if horizon := k.runUntil.Add(1); limit > horizon {
		limit = horizon
	}
	if limit == simtime.Never {
		return
	}
	// The busy state may still hold a handler that ended at this very
	// instant: the reconcile that resumed the thread only settles it
	// when it finishes, after this span. Settle it now, at the instant
	// the slow path does, so the span starts idle.
	k.updateBusy()
	hc := int64(-1) // the tick handler's warm cycles, once a tick is due
	for {
		boundary, tick := limit, false
		if k.tickArmed && k.tickAt < limit {
			boundary, tick = k.tickAt, true
		}
		d := k.cpu.DurationOf(s.c1 + s.c2)
		if n := simtime.IterationsBefore(k.now, d, boundary); n > 0 {
			k.elide(t, n, d, &s)
		}
		if !tick {
			break
		}
		if hc < 0 {
			// A span touches no page before its end (settleRecency), so
			// the handler's residency holds for every tick of the span.
			h := &k.cfg.ClockInterrupt
			if !m.Resident(h.CodePages, h.DataPages, h.CacheChunks) {
				break
			}
			hc = k.cpu.WarmCycles(h)
		}
		if !k.crossTick(t, hc, limit, &s) {
			break
		}
	}
	k.settleRecency(t, &s)
}

// bulkSpan is what a span's pieces share: the pending request whose
// cycles it replays, with each segment's warm cycles, and what
// settleRecency needs to know of the span.
type bulkSpan struct {
	r      *request
	c1, c2 int64
	cycles int64 // cycles accounted, crossed ones included
	ticks  int64 // clock ticks crossed
	// tail counts the cycles elided after the last crossed tick, and
	// inRecord says that tick fell in the record segment (the second).
	tail     int64
	inRecord bool
}

// elide accounts n whole cycles of t of length d starting now.
func (k *Kernel) elide(t *Thread, n int64, d simtime.Duration, s *bulkSpan) {
	total := simtime.Duration(n) * d
	t.quantumLeft = consumeQuantum(t.quantumLeft, total)
	k.cpu.CountWarm(&s.r.seg, n)
	k.cpu.CountWarm(&s.r.seg2, n)
	start := k.now
	k.advance(start.Add(total))
	k.bulkElided += n
	s.cycles += n
	s.tail += n
	t.bulk.loop.OnBulk(n, start, d)
}

// consumeQuantum returns the slice left after a stretch of total CPU
// time, in closed form. The slow path splits each compute stage into
// quantum-bounded chunks, and a chunk that finds the slice spent refills
// it in place (no peer is ready, ProvablyIdle, so expiry does not
// requeue). Stage boundaries and interrupts never refill on their own,
// so cycles consume their CPU time as one stretch: what is left of the
// slice first, then whole quanta, the last possibly partial.
func consumeQuantum(left, total simtime.Duration) simtime.Duration {
	if left >= total {
		// No refill fits inside the stretch — the common case when the
		// quantum dwarfs the cycle.
		return left - total
	}
	r := total - max(left, 0)
	return (Quantum - r%Quantum) % Quantum
}

// crossTick replays the clock tick due inside the cycle starting now,
// and that cycle stretched by the tick's handler, whose pages the
// caller found resident and which costs hc warm cycles, or reports
// false, having changed nothing, when the tick cannot be crossed:
//   - it ties with a chunk boundary: it falls on the cycle's start, its
//     stage boundary or its end, or on a quantum expiry. The replay
//     below takes the tick inside a running chunk; a tie is simulated;
//   - the stretched cycle does not end strictly before limit (the next
//     event that is not a tick, or the Run horizon) and before the next
//     tick.
//
// A handler that would miss ends the span before crossTick is asked:
// its misses would leave the fixed point.
//
// The slow path takes the tick as clockTick and RaiseInterrupt do: the
// governor step, the handler's cost and counters, the steal, a reconcile
// queued at the handler's end, the busy transition and the re-arm with
// its jitter draw; at the handler's end the reconcile resumes the cycle
// and the busy transition reverses. The replay does each of these at
// its instant, in that order, with no event queued. A governor step
// that changes the level prices the handler at the new clock, and so
// the second segment too when the tick lands in the first, which is
// costed only when the first finishes; the part of the cycle already
// costed keeps its price.
func (k *Kernel) crossTick(t *Thread, hc int64, limit simtime.Time, s *bulkSpan) bool {
	start, at := k.now, k.tickAt
	d1, d2 := k.cpu.DurationOf(s.c1), k.cpu.DurationOf(s.c2)
	off := at.Sub(start)
	if off <= 0 || off >= d1+d2 || off == d1 {
		return false
	}
	left := t.quantumLeft
	if left <= 0 {
		left = Quantum // spent at the cycle's start: its first chunk refills it
	}
	if off >= left && (off-left)%Quantum == 0 {
		return false
	}
	// The clock after the governor step, which dvfsTick takes below.
	clock := k.cpu.Clock()
	if k.dvfs.Enabled() {
		clock = k.dvfs.Level(k.dvfsNext())
	}
	if off < d1 {
		d2 = clock.DurationOf(s.c2)
	}
	ran, dh := d1+d2, clock.DurationOf(hc) // the thread's CPU time, the handler's
	end := start.Add(ran + dh)
	if end >= limit || at.Add(ClockTick) <= end {
		return false
	}

	// The tick and its handler.
	h := &k.cfg.ClockInterrupt
	k.advance(at)
	k.clockTicks++
	if k.dvfs.Enabled() {
		k.dvfsTick()
	}
	k.cpu.CountWarm(&s.r.seg, 1)
	k.cpu.CountWarm(&s.r.seg2, 1)
	k.cpu.CountWarm(h, 1)
	k.cpu.Add(cpu.Interrupts, 1)
	k.stolenUntil = at.Add(dh)
	k.q.ReserveSeq() // the handler's reconcile
	k.updateBusy()
	k.rearmTick()
	// The handler's end, where its reconcile resumes the cycle.
	k.advance(k.stolenUntil)
	k.updateBusy()
	// The stretched cycle's end.
	k.advance(end)
	t.quantumLeft = consumeQuantum(t.quantumLeft, ran)
	k.bulkElided++
	k.ticksCrossed++
	s.cycles++
	s.ticks++
	s.tail = 0
	s.inRecord = off > d1
	t.bulk.loop.OnBulk(1, start, ran+dh)
	return true
}

// settleRecency leaves the TLB and L2 recency order that the span's
// cycles and handlers would have left. Every touch in a span hits, so
// it only reorders, and the order it leaves is that of each page's last
// touch: one replay of the last touches per span is exact however many
// cycles the span held. A cycle touches its two segments, so after an
// undisturbed cycle another changes nothing; after a cycle an interrupt
// stretched (recencyStale), the segments need one more touch to come
// last. After a crossed tick, elided cycles leave the segments ahead of
// the handler's pages, which a span that began so need not redo
// (recencyTick). If none followed, the order is that of the stretched
// cycle itself: the handler's pages between the two segments, or ahead
// of both when the tick fell in the record segment. All these touches
// hit, so no counter moves.
func (k *Kernel) settleRecency(t *Thread, s *bulkSpan) {
	b := t.bulk
	h := &k.cfg.ClockInterrupt
	seg, seg2 := &s.r.seg, &s.r.seg2
	switch {
	case s.ticks == 0:
		if b.recency == recencyStale && s.cycles > 0 {
			k.touchWarm(seg)
			k.touchWarm(seg2)
			b.recency = recencyCycle
		}
	case s.tail > 0:
		if b.recency != recencyTick {
			k.touchWarm(h)
			k.touchWarm(seg)
			k.touchWarm(seg2)
			b.recency = recencyTick
		}
	case s.inRecord:
		k.touchWarm(seg)
		k.touchWarm(seg2)
		k.touchWarm(h)
		b.recency = recencyStale
	default:
		k.touchWarm(seg)
		k.touchWarm(h)
		k.touchWarm(seg2)
		b.recency = recencyStale
	}
}

// touchWarm references seg's pages and chunks as Execute does, without
// its counters or cost: for working sets known to be resident, where
// every touch hits and only the recency order moves.
func (k *Kernel) touchWarm(seg *cpu.Segment) {
	m := k.cpu.Mem
	m.TouchCode(seg.CodePages)
	m.TouchData(seg.DataPages)
	m.TouchCache(seg.CacheChunks)
}

// BulkElided returns the number of idle cycles accounted analytically
// instead of simulated, tick-stretched ones included — the measure of
// how much work idle elision saved, and always zero on a traced kernel.
func (k *Kernel) BulkElided() int64 { return k.bulkElided }

// CyclesSimulated returns the number of cycles of bulk-tracked threads
// the kernel simulated instead of eliding: every such cycle on a traced
// kernel, and on an untraced one those a span could not cover.
func (k *Kernel) CyclesSimulated() int64 { return k.cyclesSimulated }

// TicksCrossed returns the number of clock ticks idle elision replayed
// inside elided spans instead of simulating the cycle each interrupts;
// always zero on a traced kernel. They are among ClockTicks.
func (k *Kernel) TicksCrossed() int64 { return k.ticksCrossed }

// LoopTC is the restricted thread context handed to loop functions
// (SpawnLoop, TC.Loop). Unlike TC it runs in simulator context, with no
// coroutine to resume, so a loop function records exactly one request
// per call and offers only primitives that return nothing: code that
// reads a message is a coroutine body (Spawn), which may lend the
// kernel a loop between its message calls.
type LoopTC struct {
	t     *Thread
	k     *Kernel
	armed bool
}

// Thread returns the thread this context belongs to.
func (lc *LoopTC) Thread() *Thread { return lc.t }

// Now returns the current simulated time.
func (lc *LoopTC) Now() simtime.Time { return lc.k.now }

// Cycles reads the free-running cycle counter (a user-mode rdtsc).
func (lc *LoopTC) Cycles() int64 { return lc.k.cpu.CycleAt(lc.k.now) }

// next calls fn for the thread's next request and reports whether it
// issued one.
func (lc *LoopTC) next(fn func(lc *LoopTC) bool) bool {
	lc.armed = false
	if !fn(lc) {
		return false
	}
	if !lc.armed {
		panic("kernel: loop of thread " + lc.t.name + " returned without issuing a request")
	}
	return true
}

// arm returns the thread's request slot, set to a fresh request of the
// given kind, for the caller to fill in place — the slot is free
// whenever the kernel fetches (pending is nil), and building the request
// directly in it spares the hot path copies of the two embedded
// segments. arm resets only the progress every kind starts from; each
// primitive then sets every field process reads for its kind, so no
// field left by an earlier request is read, and the slot is never
// zeroed whole.
func (lc *LoopTC) arm(kind reqKind) *request {
	if lc.armed {
		panic("kernel: loop thread " + lc.t.name + " issued two requests in one invocation")
	}
	lc.armed = true
	r := &lc.t.reqSlot
	r.kind, r.started, r.stage = kind, false, 0
	return r
}

// Compute consumes CPU according to seg, like TC.Compute.
func (lc *LoopTC) Compute(seg cpu.Segment) { lc.arm(reqCompute).seg = seg }

// Compute2 consumes CPU for two segments back to back in one request:
// the second is costed the instant the first finishes, as two Compute
// calls would be. The idle-loop instrument issues one per sample.
func (lc *LoopTC) Compute2(a, b cpu.Segment) {
	r := lc.arm(reqCompute2)
	r.seg = a
	r.seg2 = b
}

// Sleep blocks the thread for at least d, like TC.Sleep.
func (lc *LoopTC) Sleep(d simtime.Duration) { lc.arm(reqSleep).d = d }

// DomainCross models a protection-domain crossing, like TC.DomainCross.
func (lc *LoopTC) DomainCross() { lc.arm(reqDomainCross) }

// ModeSwitch models a user/kernel mode switch, like TC.ModeSwitch.
func (lc *LoopTC) ModeSwitch() { lc.arm(reqModeSwitch) }

// ReadFile synchronously reads pages [page, page+pages) of file, like
// TC.ReadFile.
func (lc *LoopTC) ReadFile(file fscache.FileID, page, pages int64) {
	r := lc.arm(reqReadFile)
	r.file, r.page, r.pages = file, page, pages
}

// WriteFile synchronously writes pages [page, page+pages) of file, like
// TC.WriteFile.
func (lc *LoopTC) WriteFile(file fscache.FileID, page, pages int64) {
	r := lc.arm(reqWriteFile)
	r.file, r.page, r.pages = file, page, pages
}

// PendingUserInput reports whether user-input messages are queued for
// the thread, like TC.PendingUserInput.
func (lc *LoopTC) PendingUserInput() bool { return lc.t.pendingUserInput() }

// SpawnLoop creates a kernel-resident loop thread: fn is invoked in
// simulator context each time the scheduler wants the thread's next
// request, records exactly one reply-free primitive on the LoopTC, and
// returns false to exit. The request stream — and therefore the
// simulation — is identical to a coroutine thread issuing the same
// primitives, but without resuming a coroutine per request, which is
// what makes stepping thousands of machines per worker affordable.
// Periodic housekeeping threads (idle-loop instrument, persona
// background tasks) use this form; a coroutine thread borrows it for a
// run of primitives with TC.Loop.
func (k *Kernel) SpawnLoop(name string, proc ProcID, prio int, fn func(lc *LoopTC) bool) *Thread {
	return k.SpawnLoopOn(name, proc, prio, 0, fn)
}
