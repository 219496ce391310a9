package kernel

import (
	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/simtime"
)

// Engine is empty and nothing reads it: the kernel has one engine, the
// calendar queue with analytic idle elision.
//
// Deprecated: kept only because the benchmark module (bench/) still
// names it; it goes when that module stops doing so.
type Engine struct{}

// BatchedEngine returns the empty Engine.
//
// Deprecated: the batched engine is the only engine; see Engine.
func BatchedEngine() Engine { return Engine{} }

// BulkLoop is implemented by an idle-class instrument whose compute
// cycles may be elided analytically. BulkBudget bounds how many cycles
// may be skipped in one span (typically the instrument's remaining
// buffer capacity, minus one so the straddling cycle's own sample still
// fits). OnBulk informs the instrument that n whole cycles of the given
// duration, starting at start, completed without simulation; the
// instrument must append the samples those cycles would have recorded
// and roll its internal cycle-start state forward by n cycles.
type BulkLoop interface {
	BulkBudget() int64
	OnBulk(n int64, start simtime.Time, cycle simtime.Duration)
}

// SetBulkLoop registers b as the thread's bulk-elision delegate. Only
// meaningful for idle-class loop threads driving Compute2 cycles; the
// kernel starts tracking per-cycle cleanliness for the thread and may
// elide its clean cycles. A traced kernel (SetRecorder) tracks but never
// elides: every cycle it runs is simulated, which makes it the oracle
// the elision tests compare against.
func (t *Thread) SetBulkLoop(b BulkLoop) { t.bulk = b }

// ProvablyIdle reports whether the machine is provably idle at this
// instant: the CPU is not stolen by interrupt handlers, no thread is
// waiting on the ready queue, and the running thread (if any) is
// idle-class. In this state the future is fully determined by the event
// queue and the idle thread's own chunks — every fault injection,
// timer, wakeup, and device completion arrives as a queued event —
// which is what makes analytic idle-span elision sound: nothing else
// can happen strictly before NextTime.
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
// stretched it) with zero TLB/cache misses: that proves the LRU memory
// system reached the cycle's fixed point — hits only reorder resident
// entries, and the cycle touches the same pages in the same order every
// time, so every subsequent identical cycle must cost exactly the same.
// Canonical cycles set bulkClean and refresh the signature (sigD1/sigD2,
// sigDelta, cycleSeg/cycleSeg2) that tryBulkSkip replays.
//
// A cycle stretched by an interrupt (the clock tick) can still preserve
// the fixed point: if the whole window — cycle plus handler — shows zero
// ITLB/DTLB/cache-miss deltas, the handler inserted nothing into any
// LRU structure and therefore evicted nothing; with no insertions ever,
// hits are mere recency reorderings that no eviction will consult. Two
// transparent invalidation channels must also be excluded, because they
// remove entries without an immediate miss: domain crossings flush both
// TLBs (delta must be zero) and a process context switch may flush them
// too (the kernel-wide switch counter must not have moved). Such a
// cycle keeps bulkClean without touching the signature — its own deltas
// include the handler's counters, which elision must not replay — after
// verifying it ran the signature's exact segments and analytic stage
// durations. Anything else marks the thread dirty until the next
// canonical cycle re-proves the fixed point.
func (k *Kernel) noteBulkCycle(t *Thread, r *request) {
	snap := k.cpu.Snapshot()
	for i := range snap {
		t.cycleDelta[i] = snap[i] - t.cycleSnap[i]
	}
	d := t.cycleD1 + t.cycleD2
	transparent := d > 0 &&
		t.cycleDelta[cpu.ITLBMisses] == 0 &&
		t.cycleDelta[cpu.DTLBMisses] == 0 &&
		t.cycleDelta[cpu.CacheMisses] == 0 &&
		t.cycleDelta[cpu.DomainCrossings] == 0 &&
		t.cycleSwitches == k.ctxSwitches
	switch {
	case transparent &&
		k.now.Sub(t.cycleStart) == d &&
		t.cycleDelta[cpu.Interrupts] == 0:
		t.bulkClean = true
		t.sigD1, t.sigD2 = t.cycleD1, t.cycleD2
		t.sigDelta = t.cycleDelta
		// The signature's durations were priced at this operating
		// frequency; under DVFS a later governor transition invalidates
		// them (tryBulkSkip checks).
		t.sigClock = k.cpu.Clock()
		t.cycleSeg, t.cycleSeg2 = r.seg, r.seg2
	case t.bulkClean && transparent &&
		t.cycleD1 == t.sigD1 && t.cycleD2 == t.sigD2 &&
		segsEqual(&r.seg, &t.cycleSeg) && segsEqual(&r.seg2, &t.cycleSeg2):
		// Interrupt-stretched but memory-transparent: keep bulkClean and
		// the canonical signature.
	default:
		t.bulkClean = false
	}
}

// tryBulkSkip elides as many whole idle cycles as provably fit before
// the next queued event. Called from step immediately after fetching a
// bulk-tracked thread's next request — the request is pending but not
// started, so skipping n cycles and then processing the request is
// indistinguishable from simulating n cycles and fetching the request
// afresh (the fetch is stateless for loop threads).
//
// Exactness contract: the elided span replays the slow path's entire
// observable footprint — counter deltas (misses are zero by
// cleanliness; the rest scale linearly), the quantum accounting, and
// the instrument's samples (via OnBulk). A simulated cycle queues
// nothing — each chunk's completion is armed beside the queue (Run) —
// so the queue's sequence counter, and every later event's
// (at, seq) key, is the same whether the cycles ran or were elided.
// The cycle that would straddle NextTime is never elided; it executes
// honestly and is the sample that detects the tick or interrupt,
// exactly as the paper's methodology requires.
func (k *Kernel) tryBulkSkip(t *Thread) {
	if !t.bulkClean || k.rec != nil || k.shutdown {
		return
	}
	r := t.pending
	if r == nil || r.kind != reqCompute2 || r.started || r.stage != 0 {
		return
	}
	if t != k.current || k.chunkArmed || !k.ProvablyIdle() {
		return
	}
	d := t.sigD1 + t.sigD2
	if d <= 0 || !segsEqual(&r.seg, &t.cycleSeg) || !segsEqual(&r.seg2, &t.cycleSeg2) {
		return
	}
	if k.cpu.Clock() != t.sigClock {
		// A DVFS transition since the signature was recorded re-prices
		// every cycle; elision must wait for a fresh canonical cycle at
		// the new operating point. Frequency only changes at clock-tick
		// events, and elision never crosses a queued event, so within
		// an elided span the clock is provably constant.
		return
	}
	// Elide only cycles that end strictly before the next queued event
	// AND no later than the current Run's horizon. The slow path
	// completes every cycle whose last chunk completes at or before
	// `until` within this Run call, stops the clock at `until` exactly,
	// and finishes the straddling cycle in a later Run — so the clamp
	// (horizon + 1 makes the bound inclusive) is what keeps Run's return
	// value and the machine state at every Run boundary byte-identical.
	boundary := k.q.NextTime()
	if horizon := k.runUntil.Add(1); boundary > horizon {
		boundary = horizon
	}
	if boundary == simtime.Never {
		return
	}
	n := simtime.IterationsBefore(k.now, d, boundary)
	if b := t.bulk.BulkBudget(); n > b {
		n = b
	}
	if n <= 0 {
		return
	}

	// Replay the quantum arithmetic of n cycles in closed form. The
	// slow path splits each compute stage into quantum-bounded chunks,
	// and a chunk that finds the slice spent refills it in place (no
	// peer is ready, ProvablyIdle, so expiry does not requeue). Stage
	// boundaries never refill on their own, so n cycles consume the
	// span T as one stretch: what is left of the slice first, then
	// whole quanta, the last possibly partial.
	total := simtime.Duration(n) * d
	qL := t.quantumLeft
	if qL >= total {
		// No refill fits inside the span — the common case when the
		// quantum dwarfs the cycle.
		qL -= total
	} else {
		q := k.cfg.Quantum
		r := total - max(qL, 0)
		qL = (q - r%q) % q
	}
	for i, delta := range t.sigDelta {
		if delta != 0 {
			k.cpu.Add(cpu.EventKind(i), n*delta)
		}
	}
	start := k.now
	k.advance(start.Add(total))
	t.quantumLeft = qL
	k.bulkElided += n
	t.bulk.OnBulk(n, start, d)
}

// BulkElided returns the number of idle cycles accounted analytically
// instead of simulated — the measure of how much work idle elision
// saved, and always zero on a traced kernel.
func (k *Kernel) BulkElided() int64 { return k.bulkElided }

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
// (SpawnLoop, TC.Loop). Unlike TC it runs in simulator context — no
// goroutine, no channel handshake — so a loop function records exactly
// one request per call and never waits for a reply: only the reply-free
// primitives are available.
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
// request, records exactly one primitive on the LoopTC, and returns
// false to exit. The request stream — and therefore the simulation —
// is identical to a goroutine thread issuing the same primitives, but
// without any channel handshake, which is what makes stepping thousands
// of machines per worker affordable. Periodic housekeeping threads
// (idle-loop instrument, persona background tasks) use this form; a
// goroutine thread borrows it for a run of primitives with TC.Loop.
func (k *Kernel) SpawnLoop(name string, proc ProcID, prio int, fn func(lc *LoopTC) bool) *Thread {
	return k.SpawnLoopOn(name, proc, prio, 0, fn)
}
