package faults

import (
	"fmt"
	"sort"
	"strings"

	"latlab/internal/cpu"
	"latlab/internal/disk"
	"latlab/internal/kernel"
	"latlab/internal/rng"
	"latlab/internal/simtime"
)

// Kind classifies a fault. The magnitude's meaning is kind-specific.
type Kind uint8

// Fault kinds.
const (
	// DiskDegrade multiplies disk service times by Magnitude while
	// active (a drive in thermal recalibration, a failing spindle).
	DiskDegrade Kind = iota
	// DiskStall freezes the device for the window: transfers cannot
	// start before the window ends. Magnitude is unused.
	DiskStall
	// DiskMediaErrors makes each transfer attempt completing in the
	// window fail with probability Magnitude/(attempt+1) — retries are
	// progressively likelier to succeed, like a marginal sector.
	DiskMediaErrors
	// IRQStorm raises Magnitude spurious interrupts per second (a chatty
	// device or a stuck line stealing CPU from whatever runs).
	IRQStorm
	// TimerJitter delays each clock tick armed in the window by a
	// uniform random amount up to Magnitude milliseconds.
	TimerJitter
	// PriorityInversion boosts a background thread above the foreground
	// application for the window. Magnitude is unused; the priorities
	// come from the Target.
	PriorityInversion
	// CachePressure evicts Magnitude buffer-cache pages every pressure
	// interval while active (a competing working set).
	CachePressure

	numKinds
)

// String returns the stable name used in plan renders and manifests.
func (k Kind) String() string {
	switch k {
	case DiskDegrade:
		return "disk-degrade"
	case DiskStall:
		return "disk-stall"
	case DiskMediaErrors:
		return "disk-media-errors"
	case IRQStorm:
		return "irq-storm"
	case TimerJitter:
		return "timer-jitter"
	case PriorityInversion:
		return "priority-inversion"
	case CachePressure:
		return "cache-pressure"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindByName returns the kind with the given stable name (the String
// form used in plan renders, manifests, and scenario documents).
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// KindNames returns the stable names of every kind, in Kind order.
func KindNames() []string {
	out := make([]string, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k] = k.String()
	}
	return out
}

// Fault is one scheduled degradation window.
type Fault struct {
	Kind      Kind
	Start     simtime.Time
	Duration  simtime.Duration
	Magnitude float64
}

// End returns the instant the fault stops.
func (f Fault) End() simtime.Time { return f.Start.Add(f.Duration) }

// Active reports whether the fault covers t.
func (f Fault) Active(t simtime.Time) bool { return t >= f.Start && t < f.End() }

// String renders the record, e.g.
// "disk-degrade [12.000s +8.000s) x5.2".
func (f Fault) String() string {
	return fmt.Sprintf("%s [%v +%v) x%.2f", f.Kind, f.Start, f.Duration, f.Magnitude)
}

// Plan is a seed plus the fault records derived from it. The zero value
// is the empty plan (no faults).
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// Empty reports whether the plan schedules no faults.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// String renders the plan one fault per line, deterministic order.
func (p Plan) String() string {
	if p.Empty() {
		return "(no faults)"
	}
	var b strings.Builder
	for i, f := range p.Faults {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// salt derives the per-kind RNG stream from the plan seed so adding a
// kind to a plan never shifts another kind's draws.
func salt(k Kind) uint64 { return 0x9e3779b97f4a7c15 * (uint64(k) + 1) }

// Generate derives a plan from seed alone: one window per requested
// kind, placed in the middle stretch of span (15–45% in, 15–40% of span
// long) with a kind-appropriate magnitude. Kinds are emitted in the
// order given; each kind's window depends only on (seed, kind), so
// plans compose predictably.
func Generate(seed uint64, span simtime.Duration, kinds ...Kind) Plan {
	p := Plan{Seed: seed}
	for _, k := range kinds {
		r := rng.New(seed ^ salt(k))
		start := simtime.Time(float64(span) * (0.15 + 0.30*r.Float64()))
		dur := simtime.Duration(float64(span) * (0.15 + 0.25*r.Float64()))
		p.Faults = append(p.Faults, Fault{Kind: k, Start: start, Duration: dur, Magnitude: magnitude(k, r)})
	}
	sort.SliceStable(p.Faults, func(i, j int) bool {
		if p.Faults[i].Start != p.Faults[j].Start {
			return p.Faults[i].Start < p.Faults[j].Start
		}
		return p.Faults[i].Kind < p.Faults[j].Kind
	})
	return p
}

// magnitude draws a kind-appropriate magnitude.
func magnitude(k Kind, r *rng.Source) float64 {
	switch k {
	case DiskDegrade:
		return 3 + 5*r.Float64() // 3–8x slower
	case DiskMediaErrors:
		return 0.5 + 0.4*r.Float64() // 50–90% first-attempt failure
	case IRQStorm:
		return 2000 + 3000*r.Float64() // interrupts per second
	case TimerJitter:
		return 2 + 6*r.Float64() // up to 2–8 ms per tick
	case CachePressure:
		return float64(64 + r.Intn(192)) // pages per pressure interval
	default:
		return 0
	}
}

// Clock scopes a plan to one machine run. It resolves which faults are
// active at any instant, owns the injection RNG streams, and implements
// disk.FaultModel. One Clock per booted machine; not safe for use by
// more than one simulator.
type Clock struct {
	plan    Plan
	diskRnd *rng.Source // media-error attempt decisions
	tickRnd *rng.Source // timer-jitter amounts
}

// NewClock builds a clock for plan.
func NewClock(plan Plan) *Clock {
	return &Clock{
		plan:    plan,
		diskRnd: rng.New(plan.Seed ^ 0x6469736b_66617631), // "diskfav1"
		tickRnd: rng.New(plan.Seed ^ 0x7469636b_6a697431), // "tickjit1"
	}
}

// Plan returns the scoped plan.
func (c *Clock) Plan() Plan { return c.plan }

// Active returns the first fault of the given kind covering t.
func (c *Clock) Active(kind Kind, t simtime.Time) (Fault, bool) {
	for _, f := range c.plan.Faults {
		if f.Kind == kind && f.Active(t) {
			return f, true
		}
	}
	return Fault{}, false
}

// ServiceFactor implements disk.FaultModel.
func (c *Clock) ServiceFactor(t simtime.Time) float64 {
	if f, ok := c.Active(DiskDegrade, t); ok {
		return f.Magnitude
	}
	return 1
}

// StallUntil implements disk.FaultModel: a transfer starting inside a
// DiskStall window waits for the window to end.
func (c *Clock) StallUntil(t simtime.Time) simtime.Time {
	if f, ok := c.Active(DiskStall, t); ok {
		return f.End()
	}
	return t
}

// AttemptFails implements disk.FaultModel.
func (c *Clock) AttemptFails(_ disk.Op, _ int64, t simtime.Time, attempt int) bool {
	f, ok := c.Active(DiskMediaErrors, t)
	if !ok {
		return false
	}
	return c.diskRnd.Float64() < f.Magnitude/float64(attempt+1)
}

// DefaultStormSegment is the handler cost charged per spurious IRQStorm
// interrupt: a misbehaving device whose handler runs ~100 µs at
// 100 MHz, so a few-kHz storm steals a large fraction of the CPU — the
// paper's §2.5 "interrupt activity" made pathological.
func DefaultStormSegment() cpu.Segment {
	return cpu.Segment{Name: "stormintr", BaseCycles: 10_000, Instructions: 6_000, DataRefs: 2_200}
}

// Target names the machine pieces Arm injects into. K is required;
// Background and BoostPrio configure PriorityInversion and are only
// consulted when the plan schedules that kind.
type Target struct {
	// K is the kernel under attack.
	K *kernel.Kernel
	// Background is the thread boosted during PriorityInversion windows
	// (typically an OS housekeeping thread); nil skips the kind.
	Background *kernel.Thread
	// BoostPrio is the priority Background is raised to; it should
	// exceed the foreground application's priority to invert.
	BoostPrio int
}

// Arm installs the plan on t's machine. It must be called before the
// simulation starts (all fault windows open at strictly positive times)
// and at most once per clock. An empty plan is a no-op: nothing is
// installed and the machine stays on its fault-free path.
func (c *Clock) Arm(t Target) {
	if c.plan.Empty() {
		return
	}
	if t.K == nil {
		panic("faults: Arm with nil kernel")
	}
	k := t.K
	hasDisk, hasJitter := false, false
	for _, f := range c.plan.Faults {
		f := f
		switch f.Kind {
		case DiskDegrade, DiskStall, DiskMediaErrors:
			hasDisk = true
		case TimerJitter:
			hasJitter = true
		case IRQStorm:
			c.armStorm(k, f)
		case PriorityInversion:
			c.armInversion(k, t, f)
		case CachePressure:
			c.armPressure(k, f)
		}
	}
	if hasDisk {
		k.Disk().SetFaults(c)
	}
	if hasJitter {
		k.SetTickJitter(func(now simtime.Time, _ int64) simtime.Duration {
			f, ok := c.Active(TimerJitter, now)
			if !ok {
				return 0
			}
			return simtime.Duration(c.tickRnd.Float64() * f.Magnitude * float64(simtime.Millisecond))
		})
	}
}

// armStorm schedules a self-rescheduling spurious-interrupt source over
// f's window.
func (c *Clock) armStorm(k *kernel.Kernel, f Fault) {
	seg := DefaultStormSegment()
	period := simtime.Duration(float64(simtime.Second) / f.Magnitude)
	if period < 50*simtime.Microsecond {
		period = 50 * simtime.Microsecond
	}
	var fire func(now simtime.Time)
	fire = func(now simtime.Time) {
		if now >= f.End() {
			return
		}
		k.RaiseInterrupt(seg, nil)
		k.At(now.Add(period), fire)
	}
	k.At(f.Start, fire)
}

// armInversion boosts the background thread over the window and
// restores its original priority after.
func (c *Clock) armInversion(k *kernel.Kernel, t Target, f Fault) {
	bg := t.Background
	if bg == nil {
		return
	}
	restore := bg.Priority()
	k.At(f.Start, func(simtime.Time) { k.SetPriority(bg, t.BoostPrio) })
	k.At(f.End(), func(simtime.Time) { k.SetPriority(bg, restore) })
}

// armPressure evicts cache pages every 10 ms (one clock tick) over the
// window.
func (c *Clock) armPressure(k *kernel.Kernel, f Fault) {
	const every = 10 * simtime.Millisecond
	pages := int(f.Magnitude)
	var press func(now simtime.Time)
	press = func(now simtime.Time) {
		if now >= f.End() {
			return
		}
		k.Cache().EvictOldest(pages)
		k.At(now.Add(every), press)
	}
	k.At(f.Start, press)
}
