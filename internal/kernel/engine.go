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
// meaningful for idle-class loop threads driving Compute2 cycles; the
// kernel starts tracking per-cycle cleanliness for the thread and may
// elide its clean cycles. A traced kernel (SetRecorder) tracks but never
// elides: every cycle it runs is simulated, which makes it the oracle
// the elision tests compare against.
func (t *Thread) SetBulkLoop(b BulkLoop) { t.bulk = &bulkState{loop: b} }

// bulkState is a bulk-tracked thread's elision state, which only the
// thread SetBulkLoop registered carries. The cycle* fields observe the
// cycle in flight; sig* plus cycleSeg* hold the canonical
// interrupt-free signature elision replays from. recency is what the
// thread knows of the front of the TLB and L2 recency order
// (settleRecency).
type bulkState struct {
	loop          BulkLoop
	clean         bool
	recency       recency
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

// noteBulkCycle records the outcome of one completed Compute2 cycle of
// a bulk-tracked thread. A cycle is *canonically clean* when it ran
// exactly its analytic duration (no interrupt, steal, or preemption
// stretched it) with zero TLB/cache misses: that proves its costs are a
// fixed point — hits only reorder resident entries, and the cycle
// touches the same pages in the same order every time, so every
// subsequent identical cycle must cost exactly the same. Canonical
// cycles set clean and refresh the signature (sigD1/sigD2,
// sigDelta, cycleSeg/cycleSeg2) that tryBulkSkip replays.
//
// A cycle stretched by an interrupt (the clock tick) can still preserve
// the fixed point: if the whole window — cycle plus handler — shows zero
// ITLB/DTLB/cache-miss deltas, the handler inserted nothing into any
// LRU structure and therefore evicted nothing; with no insertions ever,
// hits are mere recency reorderings, which cost nothing but leave the
// handler's pages among the cycle's, an order a span must restore
// (recencyStale, settleRecency). Two
// transparent invalidation channels must also be excluded, because they
// remove entries without an immediate miss: domain crossings flush both
// TLBs (delta must be zero) and a process context switch may flush them
// too (the kernel-wide switch counter must not have moved). Such a
// cycle keeps clean without touching the signature — its own deltas
// include the handler's counters, which elision must not replay — after
// verifying it ran the signature's exact segments and analytic stage
// durations. Anything else marks the thread dirty until the next
// canonical cycle re-proves the fixed point.
func (k *Kernel) noteBulkCycle(t *Thread, r *request) {
	b := t.bulk
	snap := k.cpu.Snapshot()
	for i := range snap {
		b.cycleDelta[i] = snap[i] - b.cycleSnap[i]
	}
	d := b.cycleD1 + b.cycleD2
	transparent := d > 0 &&
		b.cycleDelta[cpu.ITLBMisses] == 0 &&
		b.cycleDelta[cpu.DTLBMisses] == 0 &&
		b.cycleDelta[cpu.CacheMisses] == 0 &&
		b.cycleDelta[cpu.DomainCrossings] == 0 &&
		b.cycleSwitches == k.ctxSwitches
	switch {
	case transparent &&
		k.now.Sub(b.cycleStart) == d &&
		b.cycleDelta[cpu.Interrupts] == 0:
		b.clean = true
		if b.recency == recencyStale {
			b.recency = recencyCycle
		}
		b.sigD1, b.sigD2 = b.cycleD1, b.cycleD2
		b.sigDelta = b.cycleDelta
		// The signature's durations were priced at this operating
		// frequency; under DVFS a later governor transition invalidates
		// them (tryBulkSkip checks).
		b.sigClock = k.cpu.Clock()
		b.cycleSeg, b.cycleSeg2 = r.seg, r.seg2
	case b.clean && transparent &&
		b.cycleD1 == b.sigD1 && b.cycleD2 == b.sigD2 &&
		segsEqual(&r.seg, &b.cycleSeg) && segsEqual(&r.seg2, &b.cycleSeg2):
		// Interrupt-stretched but memory-transparent: keep clean and
		// the canonical signature. The handler's pages were touched
		// between or after the segments' pages, so the recency order is
		// not the one further clean cycles leave (settleRecency).
		b.recency = recencyStale
	default:
		b.clean = false
		b.recency = recencyStale
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
	// recencyCycle: the segments' pages lead, as a clean cycle leaves
	// them; another clean cycle changes nothing.
	recencyCycle
	// recencyTick: the segments' pages lead with the tick handler's
	// right behind them, as clean cycles after a crossed tick leave
	// them; neither a clean cycle nor a span that crosses ticks and
	// elides cycles after the last changes anything.
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
// A span is a run of pieces: n whole clean cycles that end strictly
// before the next tick (elide), then the cycle that tick lands in,
// stretched by its handler (crossTick), and again, until the next
// event that is not a tick or the Run horizon.
// Whatever cannot be crossed ends the span, and the cycle it falls in
// is simulated honestly: that straddling cycle is the sample that
// detects the tick or interrupt, exactly as the paper's methodology
// requires.
//
// Exactness contract: the span leaves the machine exactly as the slow
// path would, at every Run boundary:
//   - counters: the signature's deltas per cycle, plus the handler's,
//     with Interrupts +1, per crossed tick (misses are zero by
//     cleanliness and residency);
//   - the clock, ClockTicks, the governor's busy mark, the tick-jitter
//     draws, and the queue's sequence counter: a crossed tick reserves
//     the two numbers the slow path takes, its handler's reconcile and
//     its re-arm, so every later event's (at, seq) key is unchanged. A
//     simulated cycle queues nothing — each chunk's completion is armed
//     beside the queue (Run);
//   - busy accounting: busyAcc and stolenUntil, with OnBusy(true) at
//     the tick and OnBusy(false) at its handler's end, Now() advanced
//     to each instant before its hook fires;
//   - the thread's quantum and the instrument's samples (OnBulk);
//   - the TLB and L2 recency order (settleRecency), which no counter
//     shows until an eviction reaches the entries that differ.
func (k *Kernel) tryBulkSkip(t *Thread) {
	b := t.bulk
	if !b.clean || k.rec != nil || k.shutdown {
		return
	}
	r := t.pending
	if r == nil || r.kind != reqCompute2 || r.started || r.stage != 0 {
		return
	}
	if t != k.current || k.chunkArmed || !k.ProvablyIdle() {
		return
	}
	d := b.sigD1 + b.sigD2
	if d <= 0 || !segsEqual(&r.seg, &b.cycleSeg) || !segsEqual(&r.seg2, &b.cycleSeg2) {
		return
	}
	if k.cpu.Clock() != b.sigClock {
		// A DVFS transition since the signature was recorded re-prices
		// every cycle; elision must wait for a fresh canonical cycle at
		// the new operating point. Frequency only changes at clock
		// ticks, and a span never crosses a tick that changes it, so
		// within a span the clock is provably constant.
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
	var s bulkSpan
	dh := simtime.Duration(-1) // the tick handler's cost, once a tick is due
	for {
		boundary, tick := limit, false
		if k.tickArmed && k.tickAt < limit {
			boundary, tick = k.tickAt, true
		}
		if n := simtime.IterationsBefore(k.now, d, boundary); n > 0 {
			k.elide(t, n, d, &s)
		}
		if !tick {
			break
		}
		if dh < 0 {
			// A span touches no page before its end (settleRecency), so
			// the handler's residency, and with it its cost at the
			// span's constant clock, holds for every tick of the span.
			h := &k.cfg.ClockInterrupt
			if !k.cpu.Mem.Resident(h.CodePages, h.DataPages, h.CacheChunks) {
				break
			}
			dh = k.cpu.DurationOf(k.cpu.WarmCycles(h))
		}
		if !k.crossTick(t, dh, limit, &s) {
			break
		}
	}
	k.settleRecency(t, &s)
}

// bulkSpan is what settleRecency needs to know of a span.
type bulkSpan struct {
	cycles int64 // cycles accounted, crossed ones included
	ticks  int64 // clock ticks crossed
	// tail counts the cycles elided after the last crossed tick, and
	// inRecord says that tick fell in the record segment (the second).
	tail     int64
	inRecord bool
}

// elide accounts n whole clean cycles of t starting now.
func (k *Kernel) elide(t *Thread, n int64, d simtime.Duration, s *bulkSpan) {
	b := t.bulk
	total := simtime.Duration(n) * d
	t.quantumLeft = consumeQuantum(t.quantumLeft, total)
	for i, delta := range b.sigDelta {
		if delta != 0 {
			k.cpu.Add(cpu.EventKind(i), n*delta)
		}
	}
	start := k.now
	k.advance(start.Add(total))
	k.bulkElided += n
	s.cycles += n
	s.tail += n
	b.loop.OnBulk(n, start, d)
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
// caller found resident and whose cost is dh, or reports false, having
// changed nothing, when the tick cannot be crossed:
//   - it ties with a chunk boundary: it falls on the cycle's start, its
//     stage boundary or its end, or on a quantum expiry. The replay
//     below takes the tick inside a running chunk; a tie is simulated;
//   - the stretched cycle does not end strictly before limit (the next
//     event that is not a tick, or the Run horizon) and before the next
//     tick;
//   - the governor would change the operating point at this tick, which
//     re-prices the rest of the cycle.
//
// A handler that would miss ends the span before crossTick is asked:
// its misses would leave the fixed point.
//
// The slow path takes the tick as clockTick and RaiseInterrupt do: the
// governor step, the handler's cost and counters, the steal, a reconcile
// queued at the handler's end, the busy transition and the re-arm with
// its jitter draw; at the handler's end the reconcile resumes the cycle
// and the busy transition reverses. The replay does each of these at
// its instant, in that order, with no event queued.
func (k *Kernel) crossTick(t *Thread, dh simtime.Duration, limit simtime.Time, s *bulkSpan) bool {
	b := t.bulk
	start, at := k.now, k.tickAt
	d1, d := b.sigD1, b.sigD1+b.sigD2
	off := at.Sub(start)
	if off <= 0 || off >= d || off == d1 {
		return false
	}
	left := t.quantumLeft
	if left <= 0 {
		left = Quantum // spent at the cycle's start: its first chunk refills it
	}
	if off >= left && (off-left)%Quantum == 0 {
		return false
	}
	end := start.Add(d + dh)
	if end >= limit || at.Add(ClockTick) <= end {
		return false
	}
	if k.dvfs.Enabled() && k.dvfsNext() != k.dvfsLevel {
		return false
	}

	// The tick and its handler. The governor step keeps the level, so
	// it only moves the busy mark.
	h := &k.cfg.ClockInterrupt
	k.advance(at)
	k.clockTicks++
	if k.dvfs.Enabled() {
		k.dvfsBusyMark = k.NonIdleBusyTime()
	}
	for i, delta := range b.sigDelta {
		if delta != 0 {
			k.cpu.Add(cpu.EventKind(i), delta)
		}
	}
	k.cpu.Add(cpu.Instructions, h.Instructions)
	k.cpu.Add(cpu.DataRefs, h.DataRefs)
	k.cpu.Add(cpu.SegmentLoads, h.SegmentLoads)
	k.cpu.Add(cpu.UnalignedAccesses, h.UnalignedAccesses)
	k.cpu.Add(cpu.Interrupts, 1)
	k.stolenUntil = at.Add(dh)
	k.q.ReserveSeq() // the handler's reconcile
	k.updateBusy()
	k.rearmTick()
	// The handler's end, where its reconcile resumes the cycle.
	k.advance(k.stolenUntil)
	k.updateBusy()
	// The stretched cycle's end. The thread ran d of it.
	k.advance(end)
	t.quantumLeft = consumeQuantum(t.quantumLeft, d)
	k.bulkElided++
	k.ticksCrossed++
	s.cycles++
	s.ticks++
	s.tail = 0
	s.inRecord = off > d1
	b.loop.OnBulk(1, start, d+dh)
	return true
}

// settleRecency leaves the TLB and L2 recency order that the span's
// cycles and handlers would have left. Every touch in a span hits, so
// it only reorders, and the order it leaves is that of each page's last
// touch: one replay of the last touches per span is exact however many
// cycles the span held. A clean cycle touches its two segments, so
// after an undisturbed cycle another changes nothing; after a cycle an
// interrupt stretched (recencyStale), the segments need one more touch
// to come last. After a crossed tick, elided cycles leave the segments
// ahead of the handler's pages, which a span that began so need not
// redo (recencyTick). If none followed, the order is that of the
// stretched cycle itself: the handler's pages between the two segments,
// or ahead of both when the tick fell in the record segment. All these
// touches hit, so no counter moves.
func (k *Kernel) settleRecency(t *Thread, s *bulkSpan) {
	b := t.bulk
	h := &k.cfg.ClockInterrupt
	switch {
	case s.ticks == 0:
		if b.recency == recencyStale && s.cycles > 0 {
			k.touchWarm(&b.cycleSeg)
			k.touchWarm(&b.cycleSeg2)
			b.recency = recencyCycle
		}
	case s.tail > 0:
		if b.recency != recencyTick {
			k.touchWarm(h)
			k.touchWarm(&b.cycleSeg)
			k.touchWarm(&b.cycleSeg2)
			b.recency = recencyTick
		}
	case s.inRecord:
		k.touchWarm(&b.cycleSeg)
		k.touchWarm(&b.cycleSeg2)
		k.touchWarm(h)
		b.recency = recencyStale
	default:
		k.touchWarm(&b.cycleSeg)
		k.touchWarm(h)
		k.touchWarm(&b.cycleSeg2)
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

// TicksCrossed returns the number of clock ticks idle elision replayed
// inside elided spans instead of simulating the cycle each interrupts;
// always zero on a traced kernel. They are among ClockTicks.
func (k *Kernel) TicksCrossed() int64 { return k.ticksCrossed }

// segsEqual reports whether two segments describe the identical work:
// same costs, counters, and working set. Page-set slices are compared
// by content — instruments reuse the same backing arrays, but the
// elision proof must not depend on that. Pointer arguments keep the
// hot-path comparison free of large struct copies.
func segsEqual(a, b *cpu.Segment) bool {
	return a.Name == b.Name &&
		a.BaseCycles == b.BaseCycles &&
		a.Instructions == b.Instructions &&
		a.DataRefs == b.DataRefs &&
		a.SegmentLoads == b.SegmentLoads &&
		a.UnalignedAccesses == b.UnalignedAccesses &&
		pagesEqual(a.CodePages, b.CodePages) &&
		pagesEqual(a.DataPages, b.DataPages) &&
		pagesEqual(a.CacheChunks, b.CacheChunks)
}

func pagesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		// Same backing array (the usual case: instruments reissue the
		// identical segment structs every cycle) — trivially equal.
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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

// arm resets the thread's request slot and returns it for the caller
// to fill in place — the slot is free whenever the kernel fetches
// (pending is nil), and building the request directly in it spares the
// hot path redundant copies of the two embedded segments.
func (lc *LoopTC) arm() *request {
	if lc.armed {
		panic("kernel: loop thread " + lc.t.name + " issued two requests in one invocation")
	}
	lc.armed = true
	lc.t.reqSlot = request{}
	return &lc.t.reqSlot
}

// Compute consumes CPU according to seg, like TC.Compute.
func (lc *LoopTC) Compute(seg cpu.Segment) {
	r := lc.arm()
	r.kind = reqCompute
	r.seg = seg
}

// Compute2 consumes CPU for two segments back to back in one request:
// the second is costed the instant the first finishes, as two Compute
// calls would be. The idle-loop instrument issues one per sample.
func (lc *LoopTC) Compute2(a, b cpu.Segment) {
	r := lc.arm()
	r.kind = reqCompute2
	r.seg = a
	r.seg2 = b
}

// Sleep blocks the thread for at least d, like TC.Sleep.
func (lc *LoopTC) Sleep(d simtime.Duration) {
	r := lc.arm()
	r.kind = reqSleep
	r.d = d
}

// DomainCross models a protection-domain crossing, like TC.DomainCross.
func (lc *LoopTC) DomainCross() { lc.arm().kind = reqDomainCross }

// ModeSwitch models a user/kernel mode switch, like TC.ModeSwitch.
func (lc *LoopTC) ModeSwitch() { lc.arm().kind = reqModeSwitch }

// ReadFile synchronously reads pages [page, page+pages) of file, like
// TC.ReadFile.
func (lc *LoopTC) ReadFile(file fscache.FileID, page, pages int64) {
	r := lc.arm()
	r.kind = reqReadFile
	r.file, r.page, r.pages = file, page, pages
}

// WriteFile synchronously writes pages [page, page+pages) of file, like
// TC.WriteFile.
func (lc *LoopTC) WriteFile(file fscache.FileID, page, pages int64) {
	r := lc.arm()
	r.kind = reqWriteFile
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
