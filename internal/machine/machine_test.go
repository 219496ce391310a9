package machine_test

import (
	"reflect"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/disk"
	"latlab/internal/machine"
	"latlab/internal/mem"
)

// The default profile must be golden-identical: every configuration a
// hardware model derives from Pentium100 equals the constants that model
// used before profiles existed.
func TestPentium100DerivationIdentities(t *testing.T) {
	p100 := machine.Pentium100()
	if got, want := cpu.PenaltiesFor(p100), cpu.DefaultPenalties(); got != want {
		t.Fatalf("PenaltiesFor(p100) = %+v, want %+v", got, want)
	}
	if got, want := mem.ConfigFor(p100), mem.DefaultConfig(); got != want {
		t.Fatalf("ConfigFor(p100) = %+v, want %+v", got, want)
	}
	if got, want := disk.ParamsFor(p100), disk.DefaultParams(); got != want {
		t.Fatalf("ParamsFor(p100) = %+v, want %+v", got, want)
	}
	c := cpu.NewFor(p100)
	if c.Freq != 100_000_000 || c.Penalties != cpu.DefaultPenalties() {
		t.Fatalf("NewFor(p100) not equivalent to the pre-profile CPU")
	}
}

func TestAllProfilesValid(t *testing.T) {
	all := machine.All()
	if len(all) == 0 || all[0].Short != "p100" {
		t.Fatalf("All must list the default profile first, got %v", machine.Shorts())
	}
	seen := map[string]bool{}
	for _, p := range all {
		p.Validate() // panics on a malformed profile
		if p.Name == "" || p.Short == "" {
			t.Fatalf("profile missing names: %+v", p)
		}
		if seen[p.Short] {
			t.Fatalf("duplicate short %q", p.Short)
		}
		seen[p.Short] = true
	}
	if got, want := len(machine.Shorts()), len(all); got != want {
		t.Fatalf("Shorts lists %d profiles, want %d", got, want)
	}
}

func TestByShort(t *testing.T) {
	for _, short := range machine.Shorts() {
		p, ok := machine.ByShort(short)
		if !ok || p.Short != short {
			t.Fatalf("ByShort(%q) = %+v, %v", short, p, ok)
		}
	}
	if _, ok := machine.ByShort("p133"); ok {
		t.Fatalf("ByShort must reject unknown ids")
	}
	if _, ok := machine.ByShort(""); ok {
		t.Fatalf("ByShort must reject the empty id")
	}
}

// sink keeps the allocation probes' results live.
var sink machine.Profile

// TestByShortBuildsOnlyItsEntry pins the constructor table: for every
// short name ByShort returns exactly All's entry, and a lookup
// allocates no more than that entry's constructor alone.
func TestByShortBuildsOnlyItsEntry(t *testing.T) {
	all := machine.All()
	for i, short := range machine.Shorts() {
		p, ok := machine.ByShort(short)
		if !ok || all[i].Short != short || !reflect.DeepEqual(p, all[i]) {
			t.Errorf("ByShort(%q) differs from All()[%d]", short, i)
		}
	}
	lookup := testing.AllocsPerRun(20, func() { sink, _ = machine.ByShort("m2026-noirq") })
	build := testing.AllocsPerRun(20, func() { sink = machine.Modern2026NoCoalesce() })
	if lookup > build {
		t.Errorf("ByShort(m2026-noirq) allocates %.0f times, Modern2026NoCoalesce() alone %.0f", lookup, build)
	}
}

func TestOrDefault(t *testing.T) {
	var zero machine.Profile
	if !zero.IsZero() {
		t.Fatalf("zero profile must report IsZero")
	}
	if got := zero.OrDefault(); got.Short != "p100" {
		t.Fatalf("OrDefault(zero) = %q, want p100", got.Short)
	}
	p200 := machine.Pentium200()
	if got := p200.OrDefault(); got.Short != "p200" {
		t.Fatalf("OrDefault must keep a configured profile, got %q", got.Short)
	}
}

func TestCounterfactualsDifferOnlyWhereClaimed(t *testing.T) {
	p100 := machine.Pentium100()

	p200 := machine.Pentium200()
	if p200.ClockHz != 2*p100.ClockHz {
		t.Fatalf("p200 clock = %v", p200.ClockHz)
	}
	if p200.TLBMissCycles <= p100.TLBMissCycles || p200.DRAMLatencyCycles <= p100.DRAMLatencyCycles {
		t.Fatalf("p200 must pay more cycles per memory access (the memory wall)")
	}
	if p200.Disk != p100.Disk {
		t.Fatalf("p200 must keep the paper's disk")
	}

	ptlb := machine.PentiumTaggedTLB()
	if !ptlb.TaggedTLB {
		t.Fatalf("ptlb must be tagged")
	}
	ptlb.TaggedTLB = false
	ptlb.Name, ptlb.Short = p100.Name, p100.Short
	if ptlb.ITLBEntries != p100.ITLBEntries || ptlb.DTLBEntries != p100.DTLBEntries ||
		ptlb.L2Bytes != p100.L2Bytes || ptlb.Disk != p100.Disk {
		t.Fatalf("ptlb must differ from p100 only in the tag bit")
	}

	nol2 := machine.P100NoL2()
	if nol2.CacheLines() != 0 {
		t.Fatalf("nol2 CacheLines = %d, want 0", nol2.CacheLines())
	}
	if p100.CacheLines() != 8192 {
		t.Fatalf("p100 CacheLines = %d, want 8192 (256K of 32B lines)", p100.CacheLines())
	}

	fast := machine.P100FastDisk()
	if fast.Disk.Rotation >= p100.Disk.Rotation || fast.Disk.TransferPerBlock >= p100.Disk.TransferPerBlock {
		t.Fatalf("fastdisk must actually be faster: %+v", fast.Disk)
	}
}

func TestValidatePanicsOnMalformedProfile(t *testing.T) {
	cases := map[string]func(*machine.Profile){
		"no TLB":      func(p *machine.Profile) { p.ITLBEntries = 0 },
		"L2 no lines": func(p *machine.Profile) { p.L2LineBytes = 0 },
		"no disk":     func(p *machine.Profile) { p.Disk.Blocks = 0 },
		"odd clock":   func(p *machine.Profile) { p.ClockHz = 3_000_001 },
	}
	for name, breakIt := range cases {
		p := machine.Pentium100()
		breakIt(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Validate should panic", name)
				}
			}()
			p.Validate()
		}()
	}
	modern := map[string]func(*machine.Profile){
		"negative cores":   func(p *machine.Profile) { p.Cores = -1 },
		"3-way SMT":        func(p *machine.Profile) { p.SMTPerCore = 3 },
		"odd SMT count":    func(p *machine.Profile) { p.Cores = 7 },
		"descending ramp":  func(p *machine.Profile) { p.DVFS.Levels[1] = p.DVFS.Levels[0] },
		"odd DVFS level":   func(p *machine.Profile) { p.DVFS.Levels[0] = 3_000_001 },
		"torn ladder":      func(p *machine.Profile) { p.DVFS.Levels[1] = 0 },
		"max not clock":    func(p *machine.Profile) { p.ClockHz = 500_000_000 },
		"inverted pcts":    func(p *machine.Profile) { p.DVFS.UpPct, p.DVFS.DownPct = 10, 25 },
		"negative window":  func(p *machine.Profile) { p.IRQCoalesce.Window = -1 },
		"negative batch":   func(p *machine.Profile) { p.IRQCoalesce.MaxBatch = -1 },
		"negative stretch": func(p *machine.Profile) { p.SMTContentionPct = -5 },
	}
	for name, breakIt := range modern {
		p := machine.Modern2026()
		breakIt(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Validate should panic", name)
				}
			}()
			p.Validate()
		}()
	}
}

// The 1996 profiles must be byte-unaware of the modern axes: zero-value
// cores/DVFS/coalescing is the contract that keeps the pre-modern code
// paths (and every golden) intact.
func TestLegacyProfilesHaveModernAxesOff(t *testing.T) {
	for _, p := range machine.All() {
		if p.Era == "2026" {
			continue
		}
		if p.Era != "1996" {
			t.Fatalf("%s: unexpected era %q", p.Short, p.Era)
		}
		if p.Cores != 0 || p.SMTPerCore != 0 || p.SMTContentionPct != 0 || p.MigrationCycles != 0 {
			t.Fatalf("%s: 1996 profile has core topology set", p.Short)
		}
		if p.DVFS.Enabled() || p.DVFS != (machine.DVFSSpec{}) {
			t.Fatalf("%s: 1996 profile has DVFS set", p.Short)
		}
		if p.IRQCoalesce.Enabled() || p.IRQCoalesce != (machine.IRQCoalesceSpec{}) {
			t.Fatalf("%s: 1996 profile has IRQ coalescing set", p.Short)
		}
		if p.Desc == "" {
			t.Fatalf("%s: missing description", p.Short)
		}
	}
}

// The modern counterfactuals must differ from the pinned base only on
// the axis each one claims to probe.
func TestModernCounterfactualsDifferOnlyWhereClaimed(t *testing.T) {
	base := machine.Modern2026Pinned()

	full := machine.Modern2026()
	if !full.DVFS.Enabled() {
		t.Fatalf("m2026 must enable DVFS")
	}
	full.DVFS = machine.DVFSSpec{}
	full.Name, full.Short, full.Desc = base.Name, base.Short, base.Desc
	if full != base {
		t.Fatalf("m2026 must differ from m2026-pin only in the governor")
	}

	uni := machine.Modern2026Uni()
	if uni.Cores != 1 || uni.SMTPerCore != 0 {
		t.Fatalf("m2026-uni must be a single logical CPU, got %+v", uni)
	}
	if uni.Disk != base.Disk || uni.ClockHz != base.ClockHz {
		t.Fatalf("m2026-uni must keep the pinned machine's disk and clock")
	}

	hdd := machine.Modern2026HDD()
	if hdd.Disk != machine.Pentium100().Disk {
		t.Fatalf("m2026-hdd must carry the paper's disk")
	}
	if hdd.IRQCoalesce.Enabled() {
		t.Fatalf("m2026-hdd must run per-request interrupts")
	}

	noirq := machine.Modern2026NoCoalesce()
	if noirq.IRQCoalesce.Enabled() {
		t.Fatalf("m2026-noirq must disable coalescing")
	}
	noirq.IRQCoalesce = base.IRQCoalesce
	noirq.Name, noirq.Short, noirq.Desc = base.Name, base.Short, base.Desc
	if noirq != base {
		t.Fatalf("m2026-noirq must differ from m2026-pin only in coalescing")
	}
}

// The governor must be a pure function: deterministic, clamped, and
// monotone in observed load for any fixed starting level. Monotonicity
// is the property that makes the DVFS distortion interpretable — more
// load never lowers the clock.
func TestDVFSNextDeterministicAndMonotone(t *testing.T) {
	spec := machine.Modern2026().DVFS
	n := spec.NumLevels()
	if n < 2 {
		t.Fatalf("m2026 ladder has %d levels, want >= 2", n)
	}
	for level := -1; level <= n; level++ {
		prev := -1
		for busy := 0; busy <= 100; busy++ {
			next := spec.Next(level, busy)
			if again := spec.Next(level, busy); again != next {
				t.Fatalf("Next(%d,%d) is not deterministic: %d vs %d", level, busy, next, again)
			}
			if next < 0 || next >= n {
				t.Fatalf("Next(%d,%d) = %d outside ladder", level, busy, next)
			}
			if next < prev {
				t.Fatalf("Next(%d,·) not monotone: busy %d%% gives level %d after %d", level, busy, next, prev)
			}
			prev = next
		}
	}
	// Endpoint behavior: saturated load climbs to max, idle decays to min.
	level := 0
	for i := 0; i < n+2; i++ {
		level = spec.Next(level, 100)
	}
	if level != n-1 {
		t.Fatalf("saturated load must reach the top level, got %d", level)
	}
	for i := 0; i < n+2; i++ {
		level = spec.Next(level, 0)
	}
	if level != 0 {
		t.Fatalf("idle must decay to the bottom level, got %d", level)
	}
	if off := (machine.DVFSSpec{}); off.Enabled() || off.Next(3, 100) != 0 || off.Level(2) != 0 || off.NumLevels() != 0 {
		t.Fatalf("zero-value spec must be inert")
	}
	if spec.Level(-4) != spec.Levels[0] || spec.Level(99) != spec.Levels[n-1] {
		t.Fatalf("Level must clamp to the ladder")
	}
}
