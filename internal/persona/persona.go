// Package persona defines the three simulated operating-system
// personalities the paper compares — Windows NT 3.51, Windows NT 4.0 and
// Windows 95 — as parameter sets over the same kernel and machine.
//
// The personas differ *mechanistically*, matching the architectural
// causes the paper identifies rather than asserting outcome numbers:
//
//   - NT 3.51 implements the Win32 API in a user-level server process, so
//     every GUI call crosses two protection domains, and each crossing
//     flushes the Pentium's TLBs (paper §5.3).
//   - NT 4.0 moved those components into the kernel: a cheap mode switch,
//     no address-space change, no TLB flush.
//   - Windows 95 runs large 16-bit components (USER/GDI): shared address
//     space, but segment-register loads, unaligned accesses, and wider
//     data working sets from thunking — and it busy-waits between
//     mouse-down and mouse-up (paper §4).
package persona

import (
	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

// Arch is the Win32 implementation architecture.
type Arch uint8

// Win32 architectures.
const (
	// ServerProcess routes GUI calls through a user-level server in its
	// own address space (NT 3.51 / CSRSS).
	ServerProcess Arch = iota
	// KernelMode implements GUI calls in the kernel (NT 4.0).
	KernelMode
	// Shared16Bit implements GUI calls in shared-memory 16-bit code
	// (Windows 95).
	Shared16Bit
)

// Background describes a periodic OS housekeeping thread. The paper's
// Fig. 3 shows Windows 95 with more idle-time activity than the NTs.
type Background struct {
	Name   string
	Period simtime.Duration
	Burst  cpu.Segment
}

// P is a complete OS personality.
type P struct {
	// Name is the full name ("Windows NT 4.0"); Short a slug ("nt40").
	Name  string
	Short string
	// Arch selects the Win32 call path.
	Arch Arch
	// Kernel is the machine/OS mechanism configuration.
	Kernel kernel.Config
	// PathScale multiplies GUI code-path length relative to NT 4.0; the
	// paper concludes warm-cache differences "are a function of the code
	// path lengths" (§4).
	PathScale float64
	// SegLoadsPerKCycle and UnalignedPerKCycle inject the 16-bit code
	// signature, per 1000 base cycles of GUI work.
	SegLoadsPerKCycle  float64
	UnalignedPerKCycle float64
	// DataWindowScale widens GUI data working sets (Windows 95 touches
	// ~93% more TLB entries than NT 4.0 in the paper's Fig. 9).
	DataWindowScale float64
	// QueueSyncCycles is the cost of processing the WM_QUEUESYNC message
	// Microsoft Test posts after every input; longer under Windows 95
	// (paper Fig. 7 note).
	QueueSyncCycles int64
	// MouseBusyWait makes the system spin between mouse-down and
	// mouse-up (Windows 95, paper §4).
	MouseBusyWait bool
	// MousePoll is the busy-wait polling segment when MouseBusyWait.
	MousePoll cpu.Segment
	// WordLinger keeps the CPU busy after each Word event (the paper
	// could not report Word numbers for Windows 95 because the system
	// "does not become idle immediately", §5.4).
	WordLinger simtime.Duration
	// BinaryScale scales the page counts of application and OLE-server
	// images (each OS release linked different library sets); it drives
	// the cold-start gaps of Table 1.
	BinaryScale float64
	// SaveScale scales document-save I/O volume. NT 4.0 writes more
	// (safe-save temp copy plus shell metadata), which is how Table 1's
	// save is *slower* on NT 4.0 than NT 3.51.
	SaveScale float64
	// BatchScale is the relative cost of a GUI call issued while more
	// user input is already queued: the window system coalesces
	// invalidations and batches requests (client-server batching, §1.1).
	// 1 means no batching. Realistic pacing leaves the queue empty
	// during handling, so only saturated input benefits — which is how an
	// "infinitely fast user" benchmark flatters throughput while latency
	// collapses.
	BatchScale float64
	// Background lists the persona's housekeeping threads.
	Background []Background
}

// kcfg builds a kernel.Config with per-persona interrupt and switch
// costs (cycle counts, so they scale with whatever clock the machine
// profile supplies at boot). The domain-crossing cost is the only
// penalty a persona owns; the hardware penalties (TLB refill, DRAM,
// 16-bit micro-costs) derive from the machine profile in kernel.New.
func kcfg(clock, kbd, mouse, diskIntr, ctxsw, modeSwitch, crossing int64) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.ClockInterrupt = cpu.Segment{Name: "clock", BaseCycles: clock,
		Instructions: clock * 6 / 10, DataRefs: clock / 4, CodePages: []uint64{2}, DataPages: []uint64{3}}
	cfg.KeyboardInterrupt = cpu.Segment{Name: "kbdintr", BaseCycles: kbd,
		Instructions: kbd * 6 / 10, DataRefs: kbd / 4, CodePages: []uint64{4, 5}, DataPages: []uint64{6}}
	cfg.MouseInterrupt = cpu.Segment{Name: "mouseintr", BaseCycles: mouse,
		Instructions: mouse * 6 / 10, DataRefs: mouse / 4, CodePages: []uint64{7}, DataPages: []uint64{8}}
	cfg.DiskInterrupt = cpu.Segment{Name: "diskintr", BaseCycles: diskIntr,
		Instructions: diskIntr * 6 / 10, DataRefs: diskIntr / 4, CodePages: []uint64{9, 10}, DataPages: []uint64{11}}
	cfg.ContextSwitch = cpu.Segment{Name: "ctxsw", BaseCycles: ctxsw,
		Instructions: ctxsw * 6 / 10, DataRefs: ctxsw / 4, CodePages: []uint64{12}, DataPages: []uint64{13}}
	cfg.ModeSwitchCycles = modeSwitch
	cfg.DomainCrossingCycles = crossing
	return cfg
}

// NT351 returns the Windows NT 3.51 personality.
func NT351() P {
	return P{
		Name:  "Windows NT 3.51",
		Short: "nt351",
		Arch:  ServerProcess,
		// Clock-interrupt floor a bit above NT 4.0's ~400 cycles.
		Kernel: kcfg(450, 2800, 1400, 2600, 700, 150, 900),
		// §5.3 attributes most of the NT gap to the server architecture
		// (crossings and TLB refills), with only a modest path change.
		PathScale:       1.03,
		DataWindowScale: 1.0,
		QueueSyncCycles: 120_000, // ~1.2 ms
		BatchScale:      0.70,    // client-server batching is aggressive
		BinaryScale:     1.20,
		SaveScale:       1.0,
	}
}

// NT40 returns the Windows NT 4.0 personality.
func NT40() P {
	return P{
		Name:  "Windows NT 4.0",
		Short: "nt40",
		// Paper §2.5: smallest observed clock-interrupt overhead on
		// NT 4.0 was about 400 cycles.
		Kernel:          kcfg(400, 2500, 1200, 2400, 650, 150, 700),
		Arch:            KernelMode,
		PathScale:       1.0,
		DataWindowScale: 1.0,
		QueueSyncCycles: 100_000, // ~1 ms
		BatchScale:      0.75,
		BinaryScale:     1.0,
		SaveScale:       1.18,
	}
}

// W95 returns the Windows 95 personality.
func W95() P {
	return P{
		Name:  "Windows 95",
		Short: "w95",
		Arch:  Shared16Bit,
		// 16-bit interrupt reflection makes low-level handling dearer.
		Kernel:             kcfg(650, 5200, 2800, 3200, 900, 300, 700),
		PathScale:          1.0,
		SegLoadsPerKCycle:  4,
		UnalignedPerKCycle: 6,
		DataWindowScale:    1.93,    // paper Fig. 9: 93% more TLB misses than NT 4.0
		QueueSyncCycles:    520_000, // ~5.2 ms; inflates elapsed time, Fig. 7
		BatchScale:         0.88,    // 16-bit GDI coalesces less
		MouseBusyWait:      true,
		MousePoll: cpu.Segment{Name: "mousepoll", BaseCycles: 4000,
			Instructions: 2600, DataRefs: 900, SegmentLoads: 40,
			CodePages: []uint64{20, 21}, DataPages: []uint64{22}},
		WordLinger:  2 * simtime.Second,
		BinaryScale: 1.10,
		SaveScale:   1.0,
		Background: []Background{
			{
				Name:   "vmm-housekeeping",
				Period: 55 * simtime.Millisecond,
				Burst: cpu.Segment{Name: "vmm", BaseCycles: 28_000,
					Instructions: 17_000, DataRefs: 7_000, SegmentLoads: 300,
					CodePages: []uint64{24, 25}, DataPages: []uint64{26, 27}},
			},
			{
				Name:   "shell-poll",
				Period: 125 * simtime.Millisecond,
				Burst: cpu.Segment{Name: "shellpoll", BaseCycles: 15_000,
					Instructions: 9_000, DataRefs: 4_000, SegmentLoads: 150,
					CodePages: []uint64{28}, DataPages: []uint64{29}},
			},
		},
	}
}

// All returns the three personas in the paper's order.
func All() []P {
	out := make([]P, len(constructors))
	for i, c := range constructors {
		out[i] = c.construct()
	}
	return out
}

// constructors pairs each persona's short name with its constructor, in
// All order, so ByShort builds only the persona it returns.
var constructors = []struct {
	short     string
	construct func() P
}{
	{"nt351", NT351},
	{"nt40", NT40},
	{"w95", W95},
}

// NTs returns only the two NT personas (several experiments exclude
// Windows 95, as the paper did).
func NTs() []P { return []P{NT351(), NT40()} }

// Shorts returns the short names of every persona, in All order.
func Shorts() []string {
	out := make([]string, len(constructors))
	for i, c := range constructors {
		out[i] = c.short
	}
	return out
}

// ByShort returns a fresh copy of the persona with the given short
// name, or ok=false.
func ByShort(short string) (P, bool) {
	for _, c := range constructors {
		if c.short == short {
			return c.construct(), true
		}
	}
	return P{}, false
}
