// Package cpu models the simulated processor: a clock (the paper's
// 100 MHz Pentium by default, any machine.Profile otherwise), per-event
// hardware counters, and a cost model that turns code-segment
// descriptions into cycle counts via the memory system.
//
// The central idea is that latency differences between OS personalities
// must *emerge* from mechanism — a protection-domain crossing flushes the
// TLBs, so the next execution of the same working set misses and pays
// penalty cycles — rather than being asserted as constants. That is what
// lets the paper's counter-based attribution (Figs. 9-10) be reproduced
// faithfully: the counters and the latency move together because one
// causes the other.
package cpu

import (
	"latlab/internal/machine"
	"latlab/internal/mem"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// Penalties holds the cycle costs of memory-system events.
type Penalties struct {
	// TLBMiss is the cost of one TLB miss. The paper uses 20 cycles as a
	// lower bound for Pentium TLB-miss handling (§5.3); the hardware walk
	// typically costs more, so machine.Pentium100 charges 25.
	TLBMiss int64
	// CacheMiss is the cost of one cache miss to DRAM.
	CacheMiss int64
	// SegmentLoad is the cost of one segment-register load (16-bit code).
	SegmentLoad int64
	// Unaligned is the extra cost of one misaligned access.
	Unaligned int64
	// DomainCrossing is the direct cost of a protection boundary switch,
	// excluding the consequential TLB refill misses.
	DomainCrossing int64
}

// PenaltiesFor derives the memory-event cost model from a hardware
// profile: the TLB-miss cost is the page walk, the cache-miss cost the
// DRAM latency, both in cycles of that profile's clock. DomainCrossing
// is an OS/architecture cost, not a hardware one, so it is a neutral
// 500 cycles here and the kernel replaces it with the persona's
// (kernel.Config.DomainCrossingCycles).
func PenaltiesFor(prof machine.Profile) Penalties {
	prof = prof.OrDefault()
	return Penalties{
		TLBMiss:        prof.TLBMissCycles,
		CacheMiss:      prof.DRAMLatencyCycles,
		SegmentLoad:    prof.SegLoadCycles,
		Unaligned:      prof.UnalignedCycles,
		DomainCrossing: 500,
	}
}

// Segment describes one unit of code execution: its base cost with a warm
// memory system, its working set, and the countable events it performs.
// Segments are value types; the same Segment executed twice in a row is
// cheaper the second time because its working set is resident.
type Segment struct {
	// Name labels the segment in traces.
	Name string
	// BaseCycles is the cost with all TLB and cache accesses hitting.
	BaseCycles int64
	// CodePages and DataPages identify the TLB working set, touched in
	// list order. The memory system prices a list per ascending run of
	// consecutive ids (internal/mem), so lay a working set out as such
	// runs; any order gives the same hits, misses and recency, only
	// slower.
	CodePages []uint64
	DataPages []uint64
	// CacheChunks identifies the cache working set, touched the same
	// way.
	CacheChunks []uint64
	// Instructions and DataRefs are counter feed only (no cost beyond
	// BaseCycles); roughly proportional to cycles on a warm machine, as
	// the paper observes in §4.
	Instructions int64
	DataRefs     int64
	// SegmentLoads and UnalignedAccesses add per-event cost — the 16-bit
	// code signature.
	SegmentLoads      int64
	UnalignedAccesses int64
}

// Scale returns a copy of s with all counts and base cycles multiplied by
// k (working sets unchanged). Useful for building larger operations from
// a unit descriptor.
func (s Segment) Scale(k int64) Segment {
	c := s
	c.BaseCycles *= k
	c.Instructions *= k
	c.DataRefs *= k
	c.SegmentLoads *= k
	c.UnalignedAccesses *= k
	return c
}

// CPU is the simulated processor. It is not safe for concurrent use; the
// simulator is single-threaded.
type CPU struct {
	Freq      simtime.Hz
	Mem       *mem.System
	Penalties Penalties

	counts [NumEventKinds]int64
	rec    *spans.Recorder
	clock  func() simtime.Time
	// eff is the current operating clock under DVFS; 0 means the CPU
	// runs at Freq (the fixed-clock machines never touch it).
	eff simtime.Hz
}

// Clock returns the current operating frequency: the DVFS level when a
// governor has set one, Freq otherwise.
func (c *CPU) Clock() simtime.Hz {
	if c.eff != 0 {
		return c.eff
	}
	return c.Freq
}

// SetClock moves the operating point to hz (a DVFS level transition);
// 0 restores the base clock. The cycle counter (CycleAt) is invariant —
// it keeps ticking at Freq, like a modern x86 TSC — so changing the
// operating point changes how long work takes, not how time is read.
func (c *CPU) SetClock(hz simtime.Hz) { c.eff = hz }

// DurationOf converts a cycle count to wall time at the current
// operating frequency.
func (c *CPU) DurationOf(cycles int64) simtime.Duration {
	if c.eff != 0 {
		return c.eff.DurationOf(cycles)
	}
	return c.Freq.DurationOf(cycles)
}

// SetRecorder attaches a span recorder reading simulated time from
// clock; recording propagates to the memory system. A nil recorder
// restores the untraced hot path exactly.
func (c *CPU) SetRecorder(rec *spans.Recorder, clock func() simtime.Time) {
	c.rec, c.clock = rec, clock
	c.Mem.SetRecorder(rec)
}

// NewFor returns a CPU for the given hardware profile: its clock, a
// memory system with the profile's TLB and L2 capacities (and tagged-TLB
// behaviour), and profile-derived penalties.
func NewFor(prof machine.Profile) *CPU {
	prof = prof.OrDefault()
	prof.ClockHz.Validate()
	return &CPU{
		Freq:      prof.ClockHz,
		Mem:       mem.NewSystem(mem.ConfigFor(prof)),
		Penalties: PenaltiesFor(prof),
	}
}

// Count returns the accumulated count for an event kind.
func (c *CPU) Count(k EventKind) int64 { return c.counts[k] }

// Add increments an event counter by n (used by devices, e.g. the
// interrupt controller counting Interrupts).
func (c *CPU) Add(k EventKind, n int64) { c.counts[k] += n }

// Snapshot returns a copy of all event counts.
func (c *CPU) Snapshot() [NumEventKinds]int64 { return c.counts }

// Execute runs a segment against the memory system and returns its cost.
// It updates the event counters as a side effect, and with a recorder
// attached it emits the segment's spans (traceExec). The segment is
// passed by pointer and only read: it is executed on every simulated
// request, and copying it is a measurable share of that path.
func (c *CPU) Execute(seg *Segment) (cycles int64, d simtime.Duration) {
	im := c.Mem.TouchCode(seg.CodePages)
	dm := c.Mem.TouchData(seg.DataPages)
	cm := int64(c.Mem.TouchCache(seg.CacheChunks))

	// The warm price is WarmCycles and CountWarm, so the cycles the
	// kernel replays without executing cost exactly what these do.
	tlbMisses := int64(im + dm)
	tlbCyc := tlbMisses * c.Penalties.TLBMiss
	cacheCyc := cm * c.Penalties.CacheMiss
	cycles = c.WarmCycles(seg) + tlbCyc + cacheCyc

	c.CountWarm(seg, 1)
	c.counts[ITLBMisses] += int64(im)
	c.counts[DTLBMisses] += int64(dm)
	c.counts[CacheMisses] += cm

	if c.rec != nil {
		// Out of line, so the untraced path keeps a small stack frame.
		c.traceExec(seg, tlbMisses, tlbCyc, cm, cacheCyc)
	}
	return cycles, c.DurationOf(cycles)
}

// WarmCycles returns the cycles Execute charges for seg when every page
// and chunk it touches is resident: its base cost plus its per-event
// costs, with no TLB refill or cache fill. The kernel prices the idle
// cycles and tick handlers it replays without executing with it.
func (c *CPU) WarmCycles(seg *Segment) int64 {
	return seg.BaseCycles + seg.SegmentLoads*c.Penalties.SegmentLoad +
		seg.UnalignedAccesses*c.Penalties.Unaligned
}

// CountWarm adds to the event counters what n executions of seg add
// when every page and chunk it touches is resident: the segment's own
// events, and no miss. It is WarmCycles's counterpart for the counters.
func (c *CPU) CountWarm(seg *Segment, n int64) {
	c.counts[Instructions] += n * seg.Instructions
	c.counts[DataRefs] += n * seg.DataRefs
	c.counts[SegmentLoads] += n * seg.SegmentLoads
	c.counts[UnalignedAccesses] += n * seg.UnalignedAccesses
}

// traceExec emits Execute's spans for seg from the miss costs Execute
// computed: one CauseExec container covering the segment, with leaf
// children laid out sequentially in the order the hardware would pay
// them — base work first, then TLB refills, cache fills, segment loads,
// and unaligned fixups.
func (c *CPU) traceExec(seg *Segment, tlbMisses, tlbCyc, cacheMisses, cacheCyc int64) {
	segCyc := seg.SegmentLoads * c.Penalties.SegmentLoad
	unalCyc := seg.UnalignedAccesses * c.Penalties.Unaligned
	t := c.clock()
	ex := c.rec.BeginAt(spans.CauseExec, seg.Name, t)
	charge := func(cause spans.Cause, cyc, count int64) {
		if cyc == 0 && count == 0 {
			return
		}
		end := t.Add(c.DurationOf(cyc))
		c.rec.ChargeSpan(cause, seg.Name, t, end, cyc, count)
		t = end
	}
	charge(spans.CauseBase, seg.BaseCycles, 0)
	charge(spans.CauseTLBMiss, tlbCyc, tlbMisses)
	charge(spans.CauseCacheMiss, cacheCyc, cacheMisses)
	charge(spans.CauseSegLoad, segCyc, seg.SegmentLoads)
	charge(spans.CauseUnaligned, unalCyc, seg.UnalignedAccesses)
	c.rec.EndAt(ex, t)
}

// DomainCross models a protection-domain crossing: it flushes both TLBs
// (untagged-Pentium behaviour; a no-op on a tagged-TLB machine), counts
// the event, and returns the direct cost.
func (c *CPU) DomainCross() (cycles int64, d simtime.Duration) {
	c.Mem.FlushTLBs()
	c.counts[DomainCrossings]++
	cycles = c.Penalties.DomainCrossing
	d = c.DurationOf(cycles)
	if c.rec != nil {
		now := c.clock()
		c.rec.ChargeSpan(spans.CauseDomainCross, "cross", now, now.Add(d), cycles, 1)
	}
	return cycles, d
}

// CycleAt returns the free-running 64-bit cycle counter value at instant
// t. The counter ticks with time, not with work (it is the Pentium TSC),
// and it is *invariant*: it always advances at the base clock Freq even
// when DVFS has moved the operating point, like a modern x86 TSC. Code
// that converts TSC deltas to wall time at the base frequency — the
// idle-loop instrument does exactly this — stays calibrated across
// frequency transitions, but observes elongated samples while the clock
// is below max. That distortion is a modeled phenomenon, not a bug; see
// the ext-modern-dvfs experiment.
func (c *CPU) CycleAt(t simtime.Time) int64 { return c.Freq.CycleAt(t) }
