// Package machine defines hardware profiles for the simulated machine.
//
// The paper attributes interactive-latency differences to architectural
// causes: the Pentium's untagged TLBs are flushed on every
// protection-domain crossing (§5.3), the L2 bounds how much working set
// survives between events, and the raw clock rate scales every code
// path (§5.1). A Profile makes each of those causes a parameter instead
// of a constant, so the attributions can be tested as counterfactuals —
// rerun the same persona on a machine with tagged TLBs and NT 3.51's
// server-architecture penalty should collapse toward NT 4.0's.
//
// Profiles are symmetric with the persona layer: a persona is an OS
// parameter set over the shared kernel, a Profile is a hardware
// parameter set under it. Pentium100 is the paper's experimental
// machine (§2.1) and is the byte-identical default: booting any persona
// on it reproduces exactly the schedules the simulator produced when
// the constants were hardcoded. The other profiles are named what-ifs.
//
// The package sits below the hardware models: cpu and mem derive their
// own configuration from a Profile (cpu.NewFor, mem.ConfigFor), disk
// takes its DiskGeometry as is, and kernel.Config carries the Profile
// so system.New can thread one machine through a whole boot.
package machine

import (
	"fmt"

	"latlab/internal/simtime"
)

// DiskGeometry describes drive geometry and speed, the parameters of
// the positional service-time model in internal/disk (seek + rotation +
// transfer). Driver policy (retry budget, backoff) is not geometry; it
// is the same on every drive and lives in internal/disk.
type DiskGeometry struct {
	// Blocks is the drive capacity in 512-byte blocks.
	Blocks int64
	// BlocksPerCylinder converts block distance to seek distance.
	BlocksPerCylinder int64
	// SeekSettle is the minimum cost of any seek.
	SeekSettle simtime.Duration
	// SeekPerCylinder is the incremental cost per cylinder crossed.
	SeekPerCylinder simtime.Duration
	// MaxSeek caps the seek cost (full-stroke seek).
	MaxSeek simtime.Duration
	// Rotation is the time of one revolution.
	Rotation simtime.Duration
	// TransferPerBlock is the media transfer time per 512-byte block.
	TransferPerBlock simtime.Duration
	// ControllerOverhead is the fixed per-request command cost.
	ControllerOverhead simtime.Duration
}

// MaxDVFSLevels bounds the frequency ladder. A fixed-size array (not a
// slice) keeps Profile comparable with ==, which the test suite relies
// on.
const MaxDVFSLevels = 6

// DVFSSpec describes a load-following frequency governor: an ascending
// ladder of clock levels plus the busy-percent thresholds that move the
// operating point up or down one level per governor window (the kernel
// evaluates it every clock tick). The zero value means DVFS is off and
// the machine runs at Profile.ClockHz forever — the pre-modern code
// path, byte-identical.
//
// The cycle counter is modeled as an invariant TSC: it always advances
// at Profile.ClockHz (the base/max clock) regardless of the current
// operating point, exactly like modern x86 TSCs. The idle-loop
// methodology calibrates against that base clock, so running slower
// elongates its samples — the central measurement distortion the
// ext-modern-dvfs experiment quantifies.
type DVFSSpec struct {
	// Levels is the ascending clock ladder, zero-terminated; the last
	// non-zero entry must equal the profile's ClockHz (the max/turbo
	// level), and every entry must divide a second evenly.
	Levels [MaxDVFSLevels]simtime.Hz
	// UpPct and DownPct are non-idle busy-percent thresholds over one
	// governor window: above UpPct the governor steps one level up,
	// below DownPct one level down, otherwise it holds.
	UpPct   int
	DownPct int
}

// Enabled reports whether the spec describes an active governor.
func (s DVFSSpec) Enabled() bool { return s.Levels[0] != 0 }

// NumLevels returns the number of configured ladder levels.
func (s DVFSSpec) NumLevels() int {
	n := 0
	for _, hz := range s.Levels {
		if hz == 0 {
			break
		}
		n++
	}
	return n
}

// Level returns the clock at ladder position i, clamped to the ladder.
func (s DVFSSpec) Level(i int) simtime.Hz {
	n := s.NumLevels()
	if n == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s.Levels[i]
}

// Next returns the ladder position after one governor window that
// observed busyPct percent non-idle busy time. It is a pure function —
// deterministic, and monotone in busyPct for any fixed level — which is
// what makes the governor property-testable.
func (s DVFSSpec) Next(level, busyPct int) int {
	n := s.NumLevels()
	if n == 0 {
		return 0
	}
	if level < 0 {
		level = 0
	}
	if level >= n {
		level = n - 1
	}
	switch {
	case busyPct > s.UpPct && level < n-1:
		return level + 1
	case busyPct < s.DownPct && level > 0:
		return level - 1
	}
	return level
}

// IRQCoalesceSpec describes device-interrupt coalescing, NVMe-style: a
// completed I/O arms a coalescing timer instead of raising its interrupt
// immediately, and the interrupt fires once for every completion that
// accumulated inside the window (or as soon as MaxBatch completions are
// pending). The zero value means every completion raises its own
// interrupt — the 1996 behavior, byte-identical.
type IRQCoalesceSpec struct {
	// Window is the coalescing timer armed by the first pending
	// completion; 0 disables coalescing entirely.
	Window simtime.Duration
	// MaxBatch flushes early once this many completions are pending
	// (0 means no batch cap, timer only).
	MaxBatch int
}

// Enabled reports whether completions are coalesced.
func (s IRQCoalesceSpec) Enabled() bool { return s.Window > 0 }

// Profile is one hardware configuration. The zero value is not a valid
// machine; use Pentium100 (or OrDefault, which maps the zero value to
// it so structs embedding a Profile keep working unconfigured).
type Profile struct {
	// Name is the full name ("Pentium 100 MHz"); Short a slug ("p100")
	// used on CLI flags and in run manifests.
	Name  string
	Short string

	// Era groups profiles by hardware generation ("1996", "2026") and
	// Desc is a one-line description; both are documentation fields
	// (latbench -list, doc walkthroughs) with no simulation effect.
	Era  string
	Desc string

	// ClockHz is the CPU clock. Segment costs are cycle counts, so the
	// clock scales every computation's wall time; it must divide a
	// second evenly (see simtime.Hz.Validate).
	ClockHz simtime.Hz

	// ITLBEntries and DTLBEntries size the instruction and data TLBs.
	ITLBEntries int
	DTLBEntries int
	// TaggedTLB marks TLB entries with an address-space tag, so
	// protection-domain crossings and process switches do not flush
	// them — the counterfactual the paper raises against the Pentium's
	// untagged TLBs (§5.3, reference [5]).
	TaggedTLB bool

	// L2Bytes and L2LineBytes size the unified L2 cache; the line count
	// is derived (CacheLines). L2Bytes == 0 means no L2 at all: every
	// cache reference goes to DRAM. The L2 hit latency is folded into
	// segment base cycles (a warm hit is the baseline the cost model is
	// calibrated against); only the miss penalty is explicit.
	L2Bytes     int
	L2LineBytes int

	// TLBMissCycles is the cost of one TLB refill (the hardware page
	// walk); DRAMLatencyCycles the cost of one cache miss to DRAM.
	// Both are cycle counts: on a faster clock the same absolute
	// memory latency costs proportionally more cycles, which is why
	// Pentium200 does not simply halve every latency.
	TLBMissCycles     int64
	DRAMLatencyCycles int64
	// SegLoadCycles and UnalignedCycles are the micro-architectural
	// costs of a segment-register load and a misaligned access (the
	// 16-bit code signature Windows 95 pays).
	SegLoadCycles   int64
	UnalignedCycles int64

	// Disk is the drive geometry.
	Disk DiskGeometry

	// Cores is the number of logical CPUs. 0 or 1 means the classic
	// single-core machine (the exact pre-modern code path). Core 0 runs
	// the full scheduler; cores 1..Cores-1 are auxiliary run queues
	// hosting background housekeeping threads.
	Cores int
	// SMTPerCore is the number of logical CPUs sharing one physical
	// core (2 = hyperthreading). Logical CPUs c and c^1 are siblings
	// when SMTPerCore is 2; 0 or 1 means no SMT.
	SMTPerCore int
	// SMTContentionPct stretches a run chunk's duration by this percent
	// when its SMT sibling is busy at chunk start — the shared-pipeline
	// tax of running two hardware threads on one core.
	SMTContentionPct int
	// MigrationCycles is the cache/TLB-refill tax charged when a thread
	// runs on a different core than its previous chunk (work stealing).
	MigrationCycles int64

	// DVFS is the frequency governor; zero value = fixed clock.
	DVFS DVFSSpec
	// IRQCoalesce batches disk-completion interrupts; zero value =
	// one interrupt per completion.
	IRQCoalesce IRQCoalesceSpec
}

// IsZero reports whether p is the unconfigured zero value.
func (p Profile) IsZero() bool { return p.ClockHz == 0 }

// OrDefault returns p, or Pentium100 when p is the zero value, so
// configs that never set a machine keep the paper's hardware.
func (p Profile) OrDefault() Profile {
	if p.IsZero() {
		return Pentium100()
	}
	return p
}

// CacheLines returns the derived L2 line count; 0 means no L2.
func (p Profile) CacheLines() int {
	if p.L2Bytes <= 0 || p.L2LineBytes <= 0 {
		return 0
	}
	return p.L2Bytes / p.L2LineBytes
}

// Validate panics on a malformed profile: a clock without an integral
// nanosecond period, empty TLBs, or a degenerate disk.
func (p Profile) Validate() {
	p.ClockHz.Validate()
	if p.ITLBEntries <= 0 || p.DTLBEntries <= 0 {
		panic(fmt.Sprintf("machine: %s has non-positive TLB entries", p.Short))
	}
	if p.L2Bytes < 0 || (p.L2Bytes > 0 && p.L2LineBytes <= 0) {
		panic(fmt.Sprintf("machine: %s has malformed L2 geometry", p.Short))
	}
	if p.Disk.Blocks <= 0 || p.Disk.BlocksPerCylinder <= 0 {
		panic(fmt.Sprintf("machine: %s has degenerate disk geometry", p.Short))
	}
	if p.Cores < 0 || p.SMTPerCore < 0 || p.SMTPerCore > 2 || p.SMTContentionPct < 0 || p.MigrationCycles < 0 {
		panic(fmt.Sprintf("machine: %s has malformed core topology", p.Short))
	}
	if p.SMTPerCore == 2 && p.Cores%2 != 0 {
		panic(fmt.Sprintf("machine: %s has SMT with an odd logical-CPU count", p.Short))
	}
	if p.DVFS.Enabled() {
		n := p.DVFS.NumLevels()
		prev := simtime.Hz(0)
		for i := 0; i < n; i++ {
			hz := p.DVFS.Levels[i]
			hz.Validate()
			if hz <= prev {
				panic(fmt.Sprintf("machine: %s DVFS ladder is not strictly ascending", p.Short))
			}
			prev = hz
		}
		for i := n; i < MaxDVFSLevels; i++ {
			if p.DVFS.Levels[i] != 0 {
				panic(fmt.Sprintf("machine: %s DVFS ladder is not zero-terminated", p.Short))
			}
		}
		if p.DVFS.Levels[n-1] != p.ClockHz {
			panic(fmt.Sprintf("machine: %s DVFS max level must equal ClockHz", p.Short))
		}
		if p.DVFS.UpPct <= p.DVFS.DownPct || p.DVFS.UpPct > 100 || p.DVFS.DownPct < 0 {
			panic(fmt.Sprintf("machine: %s has malformed DVFS thresholds", p.Short))
		}
	}
	if p.IRQCoalesce.Window < 0 || p.IRQCoalesce.MaxBatch < 0 {
		panic(fmt.Sprintf("machine: %s has malformed IRQ coalescing", p.Short))
	}
}

// fujitsuM1606 is the paper's dedicated SCSI disk (§2.1): ~1 GB,
// 5400 RPM (11.1 ms/rev), ~10 ms average seek, ~5 MB/s media rate.
func fujitsuM1606() DiskGeometry {
	return DiskGeometry{
		Blocks:             2_000_000,
		BlocksPerCylinder:  800,
		SeekSettle:         simtime.FromMillis(1.5),
		SeekPerCylinder:    8 * simtime.Microsecond,
		MaxSeek:            simtime.FromMillis(18),
		Rotation:           simtime.FromMillis(11.1),
		TransferPerBlock:   100 * simtime.Microsecond, // 512 B / ~5 MB/s
		ControllerOverhead: simtime.FromMillis(0.5),
	}
}

// Pentium100 is the paper's experimental machine (§2.1): 100 MHz
// Pentium, 32-entry ITLB / 64-entry DTLB (untagged), 256 KB L2 of
// 32-byte lines, and the Fujitsu M1606SAU disk. It is the default
// everywhere, and the goldens pin every configuration derived from it.
func Pentium100() Profile {
	return Profile{
		Name:              "Pentium 100 MHz",
		Short:             "p100",
		Era:               "1996",
		Desc:              "the paper's experimental machine (§2.1); the byte-identical default",
		ClockHz:           100_000_000,
		ITLBEntries:       32,
		DTLBEntries:       64,
		L2Bytes:           256 << 10,
		L2LineBytes:       32,
		TLBMissCycles:     25,
		DRAMLatencyCycles: 20,
		SegLoadCycles:     12,
		UnalignedCycles:   3,
		Disk:              fujitsuM1606(),
	}
}

// Pentium200 doubles the clock. DRAM and the page walk are absolute
// latencies, so their cycle costs roughly double (the memory wall);
// everything compute-bound halves in wall time while memory-bound work
// barely moves — which is exactly the profile of difference the paper's
// counter attribution separates.
func Pentium200() Profile {
	p := Pentium100()
	p.Name = "Pentium 200 MHz"
	p.Short = "p200"
	p.Desc = "double the clock, memory wall intact (more cycles per DRAM access)"
	p.ClockHz = 200_000_000
	p.TLBMissCycles = 40
	p.DRAMLatencyCycles = 40
	return p
}

// PentiumTaggedTLB is the paper's §6 counterfactual: the same machine
// with address-space-tagged TLBs, so protection-domain crossings stop
// flushing them. NT 3.51's server-architecture penalty — crossings plus
// consequential TLB refills — should collapse toward NT 4.0's.
func PentiumTaggedTLB() Profile {
	p := Pentium100()
	p.Name = "Pentium 100 MHz, tagged TLBs"
	p.Short = "ptlb"
	p.Desc = "the paper's §6 counterfactual: crossings stop flushing the TLBs"
	p.TaggedTLB = true
	return p
}

// P100NoL2 removes the L2 entirely: every cache reference pays the DRAM
// latency, so warm-state reuse — the thing that makes steady-state
// latency so much better than cold-start in Table 1 — is destroyed for
// the cache while the TLBs still work.
func P100NoL2() Profile {
	p := Pentium100()
	p.Name = "Pentium 100 MHz, no L2"
	p.Short = "nol2"
	p.Desc = "no L2 at all: every cache reference pays the DRAM latency"
	p.L2Bytes = 0
	p.L2LineBytes = 0
	return p
}

// P100FastDisk swaps in a faster drive (7200 RPM class, ~10 MB/s): the
// counterfactual for Table 1's multi-second disk-bound latencies.
func P100FastDisk() Profile {
	p := Pentium100()
	p.Name = "Pentium 100 MHz, fast disk"
	p.Short = "fastdisk"
	p.Desc = "7200 RPM-class drive: the what-if for Table 1's disk-bound seconds"
	p.Disk = DiskGeometry{
		Blocks:             2_000_000,
		BlocksPerCylinder:  800,
		SeekSettle:         simtime.FromMillis(1.0),
		SeekPerCylinder:    5 * simtime.Microsecond,
		MaxSeek:            simtime.FromMillis(12),
		Rotation:           simtime.FromMillis(8.33),
		TransferPerBlock:   50 * simtime.Microsecond, // 512 B / ~10 MB/s
		ControllerOverhead: simtime.FromMillis(0.3),
	}
	return p
}

// nvmeDrive is an NVMe-class SSD: no moving parts, so the positional
// model degenerates — a cylinder so large every request lands on it
// (block distance never crosses one, so seek time is identically zero)
// and zero rotation. What remains is the fixed command cost (~12 µs
// submission-to-completion for a queue-depth-1 read on a 2026 drive)
// plus media transfer at ~3.4 GB/s (~150 ns per 512-byte block). The
// disk model itself is untouched: geometry alone expresses the device.
func nvmeDrive() DiskGeometry {
	return DiskGeometry{
		Blocks:             4_000_000_000, // ~2 TB
		BlocksPerCylinder:  4_000_000_000, // one "cylinder": seek distance always 0
		SeekSettle:         0,
		SeekPerCylinder:    0,
		MaxSeek:            0,
		Rotation:           0,
		TransferPerBlock:   150 * simtime.Nanosecond,
		ControllerOverhead: 12 * simtime.Microsecond,
	}
}

// Modern2026 is a 2026-class desktop: 8 logical CPUs (4 physical cores
// × 2-way SMT), a load-following DVFS governor, NVMe storage, and
// interrupt coalescing.
//
// The clock deserves a caveat: simtime requires an integral-nanosecond
// cycle period (simtime.Hz.Validate), so 1 GHz is the highest
// representable clock. Modern2026 therefore models a 2026 core as a
// 1 GHz machine with 2026-era per-cycle costs — a ~30 ns page walk is
// 30 cycles, ~80 ns DRAM is 80 cycles, against p100's 250 ns / 200 ns.
// Relative to p100 that is a 10× clock and an honest memory wall; the
// EXPERIMENTS.md chapter discusses the cap explicitly. The DVFS ladder
// (250/500/1000 MHz) steps by the same integral-period rule.
func Modern2026() Profile {
	return Profile{
		Name:              "2026 desktop (8T/4C, DVFS, NVMe)",
		Short:             "m2026",
		Era:               "2026",
		Desc:              "2026 desktop: SMT multicore, DVFS governor, NVMe, IRQ coalescing",
		ClockHz:           1_000_000_000,
		ITLBEntries:       512,
		DTLBEntries:       1024,
		TaggedTLB:         true, // PCID: no crossing flushes
		L2Bytes:           8 << 20,
		L2LineBytes:       64,
		TLBMissCycles:     30, // ~30 ns page walk
		DRAMLatencyCycles: 80, // ~80 ns DRAM
		SegLoadCycles:     1,  // segmentation is vestigial
		UnalignedCycles:   0,  // unaligned access is free on modern cores
		Disk:              nvmeDrive(),
		Cores:             8,
		SMTPerCore:        2,
		SMTContentionPct:  35,
		MigrationCycles:   3000, // ~3 µs of cache/TLB refill
		DVFS: DVFSSpec{
			Levels:  [MaxDVFSLevels]simtime.Hz{250_000_000, 500_000_000, 1_000_000_000},
			UpPct:   25,
			DownPct: 10,
		},
		IRQCoalesce: IRQCoalesceSpec{
			Window:   200 * simtime.Microsecond,
			MaxBatch: 8,
		},
	}
}

// Modern2026Pinned is Modern2026 with the governor disabled — the clock
// pinned at the 1 GHz max level. The control arm for ext-modern-dvfs,
// and the base for the other single-axis modern counterfactuals (which
// keep the clock pinned so the axis under test is the only difference).
func Modern2026Pinned() Profile {
	p := Modern2026()
	p.Name = "2026 desktop, clock pinned at max"
	p.Short = "m2026-pin"
	p.Desc = "m2026 with DVFS off: clock pinned at 1 GHz"
	p.DVFS = DVFSSpec{}
	return p
}

// Modern2026Uni squeezes the pinned machine down to one logical CPU, so
// background housekeeping contends with foreground work on core 0 the
// way it always did in 1996 — the control arm for ext-modern-smt.
func Modern2026Uni() Profile {
	p := Modern2026Pinned()
	p.Name = "2026 desktop, single core"
	p.Short = "m2026-uni"
	p.Desc = "m2026-pin squeezed to one logical CPU (no background offload)"
	p.Cores = 1
	p.SMTPerCore = 0
	p.SMTContentionPct = 0
	p.MigrationCycles = 0
	return p
}

// Modern2026HDD puts the paper's 1996 Fujitsu spindle under the 2026
// CPU — the control arm for ext-modern-nvme. Coalescing is also off
// (per-request interrupts), matching how a 1996 driver ran the drive.
func Modern2026HDD() Profile {
	p := Modern2026Pinned()
	p.Name = "2026 desktop, 1996 disk"
	p.Short = "m2026-hdd"
	p.Desc = "m2026-pin with the paper's 5400 RPM Fujitsu disk"
	p.Disk = fujitsuM1606()
	p.IRQCoalesce = IRQCoalesceSpec{}
	return p
}

// Modern2026NoCoalesce turns interrupt coalescing off on the NVMe
// machine, so every completion raises its own interrupt — the control
// arm for ext-modern-irq.
func Modern2026NoCoalesce() Profile {
	p := Modern2026Pinned()
	p.Name = "2026 desktop, per-request IRQs"
	p.Short = "m2026-noirq"
	p.Desc = "m2026-pin with IRQ coalescing off (one interrupt per completion)"
	p.IRQCoalesce = IRQCoalesceSpec{}
	return p
}

// All returns every named profile, default first.
func All() []Profile {
	out := make([]Profile, len(constructors))
	for i, c := range constructors {
		out[i] = c.construct()
	}
	return out
}

// constructors pairs each profile's short name with its constructor, in
// All order, so ByShort builds only the profile it returns.
var constructors = []struct {
	short     string
	construct func() Profile
}{
	{"p100", Pentium100},
	{"p200", Pentium200},
	{"ptlb", PentiumTaggedTLB},
	{"nol2", P100NoL2},
	{"fastdisk", P100FastDisk},
	{"m2026", Modern2026},
	{"m2026-pin", Modern2026Pinned},
	{"m2026-uni", Modern2026Uni},
	{"m2026-hdd", Modern2026HDD},
	{"m2026-noirq", Modern2026NoCoalesce},
}

// ByShort returns a fresh copy of the profile with the given short
// name, or ok=false.
func ByShort(short string) (Profile, bool) {
	for _, c := range constructors {
		if c.short == short {
			return c.construct(), true
		}
	}
	return Profile{}, false
}

// Shorts returns the short names of every profile, in All order.
func Shorts() []string {
	out := make([]string, len(constructors))
	for i, c := range constructors {
		out[i] = c.short
	}
	return out
}
