package persona

import (
	"reflect"
	"strings"
	"testing"

	"latlab/internal/cpu"
)

func TestAllPersonas(t *testing.T) {
	ps := All()
	if len(ps) != 3 {
		t.Fatalf("want 3 personas")
	}
	wantShort := []string{"nt351", "nt40", "w95"}
	for i, p := range ps {
		if p.Short != wantShort[i] {
			t.Fatalf("persona %d short = %q, want %q", i, p.Short, wantShort[i])
		}
		if p.Name == "" {
			t.Fatalf("persona %q missing name", p.Short)
		}
		if p.PathScale <= 0 || p.DataWindowScale <= 0 {
			t.Fatalf("persona %q has non-positive scales", p.Short)
		}
		if p.QueueSyncCycles <= 0 {
			t.Fatalf("persona %q missing QueueSync cost", p.Short)
		}
	}
	if len(NTs()) != 2 {
		t.Fatalf("NTs should return both NT personas")
	}
}

func TestByShort(t *testing.T) {
	p, ok := ByShort("nt40")
	if !ok || p.Name != "Windows NT 4.0" {
		t.Fatalf("ByShort(nt40) = %+v, %v", p, ok)
	}
	if _, ok := ByShort("os2"); ok {
		t.Fatalf("unknown persona should not resolve")
	}
	if got := strings.Join(Shorts(), ","); got != "nt351,nt40,w95" {
		t.Fatalf("Shorts() = %s, want All order", got)
	}
	for _, short := range Shorts() {
		if _, ok := ByShort(short); !ok {
			t.Fatalf("Shorts lists %q but ByShort cannot resolve it", short)
		}
	}
}

// sink keeps the allocation probes' results live.
var sink P

// TestByShortBuildsOnlyItsEntry pins the constructor table: for every
// short name ByShort returns exactly All's entry, and a lookup
// allocates no more than that entry's constructor alone.
func TestByShortBuildsOnlyItsEntry(t *testing.T) {
	all := All()
	for i, short := range Shorts() {
		p, ok := ByShort(short)
		if !ok || all[i].Short != short || !reflect.DeepEqual(p, all[i]) {
			t.Errorf("ByShort(%q) differs from All()[%d]", short, i)
		}
	}
	lookup := testing.AllocsPerRun(20, func() { sink, _ = ByShort("w95") })
	build := testing.AllocsPerRun(20, func() { sink = W95() })
	if lookup > build {
		t.Errorf("ByShort(w95) allocates %.0f times, W95() alone %.0f", lookup, build)
	}
}

func TestArchitecturalDifferences(t *testing.T) {
	nt351, nt40, w95 := NT351(), NT40(), W95()

	if nt351.Arch != ServerProcess {
		t.Fatalf("NT 3.51 must use the user-level Win32 server")
	}
	if nt40.Arch != KernelMode {
		t.Fatalf("NT 4.0 must use in-kernel Win32")
	}
	if w95.Arch != Shared16Bit {
		t.Fatalf("Windows 95 must use shared 16-bit components")
	}

	// Only Windows 95 carries the 16-bit signature and the mouse
	// busy-wait; only it runs extra idle-time background work (Fig. 3).
	if nt351.SegLoadsPerKCycle != 0 || nt40.SegLoadsPerKCycle != 0 {
		t.Fatalf("NT personas must not inject segment loads")
	}
	if w95.SegLoadsPerKCycle <= 0 || w95.UnalignedPerKCycle <= 0 {
		t.Fatalf("Windows 95 must inject 16-bit costs")
	}
	if nt351.MouseBusyWait || nt40.MouseBusyWait || !w95.MouseBusyWait {
		t.Fatalf("mouse busy-wait is a Windows 95 behaviour")
	}
	if len(nt351.Background) != 0 || len(nt40.Background) != 0 || len(w95.Background) == 0 {
		t.Fatalf("background housekeeping is a Windows 95 behaviour")
	}
	if w95.DataWindowScale < 1.5 {
		t.Fatalf("Windows 95 data-window scale should reflect the +93%% TLB misses")
	}

	// Paper §2.5: NT 4.0 minimum clock-interrupt overhead ≈400 cycles;
	// the others are not lower.
	if nt40.Kernel.ClockInterrupt.BaseCycles != 400 {
		t.Fatalf("NT 4.0 clock handler = %d cycles, want 400", nt40.Kernel.ClockInterrupt.BaseCycles)
	}
	if nt351.Kernel.ClockInterrupt.BaseCycles < 400 || w95.Kernel.ClockInterrupt.BaseCycles < 400 {
		t.Fatalf("clock handler costs should be ≥ NT 4.0's")
	}

	// WM_QUEUESYNC is dearer under Windows 95 (Fig. 7 note).
	if w95.QueueSyncCycles <= nt40.QueueSyncCycles || w95.QueueSyncCycles <= nt351.QueueSyncCycles {
		t.Fatalf("Windows 95 QueueSync must cost the most")
	}

	// The crossing penalty is wired into the kernel config as the
	// persona-owned cost; hardware penalties come from the machine
	// profile.
	if nt351.Kernel.DomainCrossingCycles == 0 || nt40.Kernel.DomainCrossingCycles == 0 {
		t.Fatalf("domain-crossing cost not configured")
	}
	if nt351.Kernel.DomainCrossingCycles <= nt40.Kernel.DomainCrossingCycles {
		t.Fatalf("the server-process persona's crossing must cost more")
	}
	// Word-on-95 lingering prevents idleness (paper §5.4).
	if w95.WordLinger == 0 || nt40.WordLinger != 0 {
		t.Fatalf("WordLinger should be set only for Windows 95")
	}
}

// Every persona's interrupt and context-switch segments touch page
// lists of one ascending run each, the shape internal/mem prices
// cheapest (see cpu.Segment); a list reordered by a later edit fails
// here instead of silently costing more per interrupt.
func TestKernelSegmentsAreRuns(t *testing.T) {
	for _, p := range All() {
		k := p.Kernel
		for _, seg := range []cpu.Segment{k.ClockInterrupt, k.KeyboardInterrupt, k.MouseInterrupt, k.DiskInterrupt, k.ContextSwitch} {
			for _, list := range [][]uint64{seg.CodePages, seg.DataPages, seg.CacheChunks} {
				for i := 1; i < len(list); i++ {
					if list[i] != list[i-1]+1 {
						t.Errorf("%s %s: list %v is not one ascending run", p.Short, seg.Name, list)
						break
					}
				}
			}
		}
	}
}
