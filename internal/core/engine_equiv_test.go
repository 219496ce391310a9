package core

import (
	"slices"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/mem"
	"latlab/internal/persona"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/spans"
	"latlab/internal/system"
)

// elisionRun is one booted machine and what its hooks and its idle-loop
// instrument observed.
type elisionRun struct {
	k   *kernel.Kernel
	il  *IdleLoop
	rec *hookRecorder
}

// elisionCase is one scenario the elision exactness proof runs twice.
type elisionCase struct {
	// boot builds the kernel: a bare one (kernelOn) or a booted
	// persona's (systemOn).
	boot func() *kernel.Kernel
	// load spawns the scenario's threads and arms its faults, after the
	// instrument has started; nil runs the instrument alone.
	load func(k *kernel.Kernel)
	// bounds are the Run boundaries, ascending; the last ends the run.
	bounds []simtime.Time
	// observe, when set, sees both machines at every boundary.
	observe func(oracle, fast elisionRun)
}

func kernelOn(cfg kernel.Config) func() *kernel.Kernel {
	return func() *kernel.Kernel { return kernel.New(cfg) }
}

func systemOn(p persona.P, m machine.Profile) func() *kernel.Kernel {
	return func() *kernel.Kernel { return system.New(system.Config{Persona: p, Machine: m}).K }
}

// wander returns Run boundaries up to until whose steps run from lo to
// hi in an irregular order, so the boundaries fall at a different phase
// of the 10 ms tick and of the idle cycle each time.
func wander(until simtime.Time, lo, hi simtime.Duration) []simtime.Time {
	var out []simtime.Time
	span := int64(hi-lo)/int64(simtime.Microsecond) + 1
	at := simtime.Time(0)
	for i := int64(0); at < until; i++ {
		at = min(at.Add(lo+simtime.Duration(i*2377%span)*simtime.Microsecond), until)
		out = append(out, at)
	}
	return out
}

// runElisionPair runs c twice in lockstep: traced, where the attached
// span recorder makes the kernel simulate every idle cycle and every
// tick, and untraced, where clean idle cycles are elided analytically
// and the ticks among them crossed. At every Run boundary the two must
// agree on the stop time, each thread's leftover quantum and the TLB and
// L2 recency order; at the end on everything requireIdenticalMachines
// compares.
func runElisionPair(t *testing.T, c elisionCase) (oracle, fast elisionRun) {
	t.Helper()
	start := func(traced bool) elisionRun {
		k := c.boot()
		if traced {
			k.SetRecorder(spans.NewRecorder(k.Now))
		}
		r := elisionRun{k: k, rec: recordHooks(k)}
		r.il = StartIdleLoop(k)
		r.il.Record()
		if c.load != nil {
			c.load(k)
		}
		return r
	}
	oracle, fast = start(true), start(false)
	defer oracle.k.Shutdown()
	defer fast.k.Shutdown()
	for _, until := range c.bounds {
		if a, b := oracle.k.Run(until), fast.k.Run(until); a != b {
			t.Fatalf("Run(%v) stopped at %v traced, %v untraced", until, a, b)
		}
		requireSameAtBoundary(t, oracle, fast)
		if c.observe != nil {
			c.observe(oracle, fast)
		}
	}
	requireIdenticalMachines(t, oracle, fast)
	return oracle, fast
}

// requireSameAtBoundary compares the state no sample or counter shows:
// each thread's leftover quantum and the recency order of the TLBs and
// the L2, which stays invisible until an eviction reaches the entries
// that differ.
func requireSameAtBoundary(t *testing.T, oracle, fast elisionRun) {
	t.Helper()
	now := oracle.k.Now()
	a, b := oracle.k.Threads(), fast.k.Threads()
	if len(a) != len(b) {
		t.Fatalf("at %v the traced kernel has %d threads, the untraced %d", now, len(a), len(b))
	}
	for i := range a {
		if qa, qb := a[i].QuantumLeft(), b[i].QuantumLeft(); qa != qb {
			t.Fatalf("at %v thread %s has %v of its quantum left traced, %v untraced", now, a[i].Name(), qa, qb)
		}
	}
	ma, mb := oracle.k.CPU().Mem, fast.k.CPU().Mem
	for _, l := range []struct {
		name string
		a, b *mem.LRU
	}{{"ITLB", ma.ITLB, mb.ITLB}, {"DTLB", ma.DTLB, mb.DTLB}, {"L2", ma.Cache, mb.Cache}} {
		if l.a == nil {
			continue
		}
		if ra, rb := l.a.AppendRecency(nil), l.b.AppendRecency(nil); !slices.Equal(ra, rb) {
			t.Fatalf("at %v the %s recency order diverged (most recent first): traced %v, untraced %v",
				now, l.name, ra[:min(len(ra), 12)], rb[:min(len(rb), 12)])
		}
	}
}

// requireIdenticalMachines is the exactness proof for idle elision: the
// traced oracle must have elided nothing, and the two machines must be
// indistinguishable — identical idle-sample traces, busy spans,
// hardware counters, clock ticks, busy-time accounting, governor level,
// auxiliary-core busy time, and one firing-order log of the busy,
// message-API, post and synchronous-I/O hooks, which also pins how the
// hooks interleave. The traced instrument folds every cycle one by one
// and the untraced one folds elided runs in closed form
// (spanFold.addCycles); both must fold what BusySpans makes of the
// samples.
func requireIdenticalMachines(t *testing.T, oracle, fast elisionRun) {
	t.Helper()
	if n, x := oracle.k.BulkElided(), oracle.k.TicksCrossed(); n != 0 || x != 0 {
		t.Fatalf("traced kernel elided %d cycles and crossed %d ticks, want 0", n, x)
	}
	requireSameLog(t, "idle sample", oracle.il.Samples(), fast.il.Samples())
	samples := oracle.il.Samples()
	replay := BusySpans(samples, DefaultBusyThreshold)
	requireSameLog(t, "traced busy span", replay, oracle.il.Spans())
	requireSameLog(t, "untraced busy span", replay, fast.il.Spans())
	if last := samples[len(samples)-1].Done; oracle.il.fold.last != last || fast.il.fold.last != last {
		t.Fatalf("last sample done at %v, folded as %v traced, %v untraced", last, oracle.il.fold.last, fast.il.fold.last)
	}
	want, got := oracle.k.CPU().Snapshot(), fast.k.CPU().Snapshot()
	for kind := range want {
		if want[kind] != got[kind] {
			t.Fatalf("counter %v diverged: traced %d, untraced %d", cpu.EventKind(kind), want[kind], got[kind])
		}
	}
	if a, b := oracle.k.ClockTicks(), fast.k.ClockTicks(); a != b {
		t.Fatalf("clock ticks diverged: %d vs %d", a, b)
	}
	if a, b := oracle.k.NonIdleBusyTime(), fast.k.NonIdleBusyTime(); a != b {
		t.Fatalf("busy time diverged: %v vs %v", a, b)
	}
	if a, b := oracle.k.DVFSLevel(), fast.k.DVFSLevel(); a != b {
		t.Fatalf("governor level diverged: %d vs %d", a, b)
	}
	if a, b := oracle.k.AuxBusyTime(), fast.k.AuxBusyTime(); a != b {
		t.Fatalf("aux busy diverged: %v vs %v", a, b)
	}
	requireSameLog(t, "hook record", oracle.rec.log, fast.rec.log)
}

func requireSameLog[T comparable](t *testing.T, what string, oracle, fast []T) {
	t.Helper()
	for i := range min(len(oracle), len(fast)) {
		if oracle[i] != fast[i] {
			t.Fatalf("%s %d diverged: traced %+v, untraced %+v", what, i, oracle[i], fast[i])
		}
	}
	if len(oracle) != len(fast) {
		t.Fatalf("%s count diverged: traced %d, untraced %d", what, len(oracle), len(fast))
	}
}

// requireCrossed fails a case whose untraced run elided no cycles or
// crossed no tick: its equivalence check would be vacuous.
func requireCrossed(t *testing.T, fast elisionRun) {
	t.Helper()
	if fast.k.BulkElided() == 0 || fast.k.TicksCrossed() == 0 {
		t.Fatalf("untraced kernel elided %d cycles and crossed %d of %d ticks; the equivalence check is vacuous",
			fast.k.BulkElided(), fast.k.TicksCrossed(), fast.k.ClockTicks())
	}
	t.Logf("crossed %d of %d ticks, elided %d cycles", fast.k.TicksCrossed(), fast.k.ClockTicks(), fast.k.BulkElided())
}

// typist spawns an application thread that handles keystrokes — a
// compute per key, a file read every third — and queues keyboard
// interrupts every gap, so the message-API, post and synchronous-I/O
// hooks all fire between idle stretches.
func typist(keys int, gap simtime.Duration) func(k *kernel.Kernel) {
	return func(k *kernel.Kernel) {
		file := k.Cache().AddFile("doc", 20_000, 256)
		app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
			for i := 0; ; i++ {
				tc.GetMessage()
				tc.Compute(cpu.Segment{Name: "key", BaseCycles: 120_000, Instructions: 80_000,
					CodePages: []uint64{60, 61}, DataPages: []uint64{70}})
				if i%3 == 0 {
					tc.ReadFile(file, int64(i*4%256), 4)
				}
			}
		})
		for i := 1; i <= keys; i++ {
			k.At(simtime.Time(i)*simtime.Time(gap), func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 'a') })
		}
	}
}

// TestEngineEquivalence runs the idle-loop instrument against a
// periodically bursting worker for two seconds. The worker's bursts and
// sleeps exercise the straddling-cycle path: every elided span ends at a
// wakeup, a completion or a tick it cannot cross, and the cycle
// crossing that event is simulated.
func TestEngineEquivalence(t *testing.T) {
	burst := cpu.Segment{
		Name:         "burst",
		BaseCycles:   300_000,
		Instructions: 200_000,
		DataRefs:     50_000,
		CodePages:    []uint64{7, 8},
		DataPages:    []uint64{9, 10, 11},
	}
	_, fast := runElisionPair(t, elisionCase{
		boot:   kernelOn(kernel.DefaultConfig()),
		bounds: wander(simtime.Time(2*simtime.Second), 3*simtime.Millisecond, 45*simtime.Millisecond),
		load: func(k *kernel.Kernel) {
			k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
				for i := 0; i < 8; i++ {
					tc.Sleep(150 * simtime.Millisecond)
					tc.Compute(burst)
				}
			})
		},
	})
	requireCrossed(t, fast)
}

// TestEngineEquivalencePersonas re-proves exactness across multi-tick
// idle spans on the paper's machine under NT 4.0, whose idle machine is
// the tick and nothing else, and Windows 95, whose housekeeping thread
// wakes inside the idle stretches. A typist drives the message, post
// and file-I/O hooks between them.
func TestEngineEquivalencePersonas(t *testing.T) {
	for _, p := range []persona.P{persona.NT40(), persona.W95()} {
		t.Run(p.Short, func(t *testing.T) {
			_, fast := runElisionPair(t, elisionCase{
				boot:   systemOn(p, machine.Pentium100()),
				load:   typist(6, 230*simtime.Millisecond),
				bounds: wander(simtime.Time(2500*simtime.Millisecond), 20*simtime.Millisecond, 130*simtime.Millisecond),
			})
			requireCrossed(t, fast)
		})
	}
}

// TestEngineEquivalenceModernMachine re-proves elision exactness on the
// 2026 profile, where three mechanisms interact with it: DVFS
// transitions re-price the idle loop's cycles (the sigClock guard must
// dirty stale signatures, and a tick whose governor step would change
// the level is not crossed), auxiliary-core housekeeping events land
// inside otherwise-idle stretches, and disk-interrupt coalescing timers
// sit on the event queue.
func TestEngineEquivalenceModernMachine(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Machine = machine.Modern2026()
	levels := map[int]bool{}
	oracle, fast := runElisionPair(t, elisionCase{
		boot:   kernelOn(cfg),
		bounds: wander(simtime.Time(2*simtime.Second), 5*simtime.Millisecond, 60*simtime.Millisecond),
		load: func(k *kernel.Kernel) {
			sleep := true
			k.SpawnLoopOn("housekeep", kernel.KernelProc, 4, 1, func(lc *kernel.LoopTC) bool {
				if sleep {
					lc.Sleep(170 * simtime.Millisecond)
				} else {
					lc.Compute(cpu.Segment{Name: "scrub", BaseCycles: 400_000, CodePages: []uint64{31}, CacheChunks: []uint64{77, 78}})
				}
				sleep = !sleep
				return true
			})
			k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
				for i := 0; i < 6; i++ {
					tc.Sleep(220 * simtime.Millisecond)
					tc.Compute(cpu.Segment{Name: "burst", BaseCycles: 5_000_000, Instructions: 3_000_000})
				}
			})
		},
		observe: func(_, fast elisionRun) { levels[fast.k.DVFSLevel()] = true },
	})
	if oracle.k.AuxBusyTime() == 0 {
		t.Fatalf("housekeeping ran no aux-core work; the aux check is vacuous")
	}
	if len(levels) < 2 {
		t.Fatalf("the governor stayed at one level (%v) at every boundary; the DVFS check is vacuous", levels)
	}
	requireCrossed(t, fast)
}

// TestEngineEquivalenceTickJitter crosses ticks armed at jittered
// instants: the fault layer's timer-jitter draw must happen once per
// tick, at the tick, in the same order on both paths, and every re-arm
// must land where the slow path puts it.
func TestEngineEquivalenceTickJitter(t *testing.T) {
	plan := faults.Plan{Seed: 7, Faults: []faults.Fault{{Kind: faults.TimerJitter,
		Start: simtime.Time(100 * simtime.Millisecond), Duration: 1500 * simtime.Millisecond, Magnitude: 3}}}
	_, fast := runElisionPair(t, elisionCase{
		boot: kernelOn(persona.NT40().Kernel),
		load: func(k *kernel.Kernel) {
			faults.NewClock(plan).Arm(faults.Target{K: k})
			typist(5, 310*simtime.Millisecond)(k)
		},
		bounds: wander(simtime.Time(2*simtime.Second), 15*simtime.Millisecond, 90*simtime.Millisecond),
	})
	requireCrossed(t, fast)
}

// TestEngineEquivalenceQuantumStraddle runs the elision proof under a
// 2.5 ms quantum, which slices each 1 ms idle cycle differently on every
// iteration, so elided spans and crossed ticks straddle quantum refills,
// and ticks that fall on a quantum expiry must be simulated.
func TestEngineEquivalenceQuantumStraddle(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Quantum = 2500 * simtime.Microsecond
	_, fast := runElisionPair(t, elisionCase{
		boot:   kernelOn(cfg),
		bounds: wander(simtime.Time(1500*simtime.Millisecond), 3*simtime.Millisecond, 40*simtime.Millisecond),
		load: func(k *kernel.Kernel) {
			k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
				for i := 0; i < 4; i++ {
					tc.Sleep(300 * simtime.Millisecond)
					tc.Compute(cpu.Segment{Name: "blip", BaseCycles: 50_000, Instructions: 30_000})
				}
			})
		},
	})
	requireCrossed(t, fast)
}

// TestEngineEquivalenceHorizonInStretchedCycle stops Run inside the
// cycle a tick stretches — inside the handler, just after it, and later
// in the cycle — with two ticks crossed between boundaries. A span must
// never cross a tick whose stretched cycle ends past the horizon, and
// the state it leaves at the horizon must be the simulated one.
func TestEngineEquivalenceHorizonInStretchedCycle(t *testing.T) {
	const tick = 10 * simtime.Millisecond
	offsets := []simtime.Duration{2 * simtime.Microsecond, 5 * simtime.Microsecond,
		300 * simtime.Microsecond, 800 * simtime.Microsecond}
	var bounds []simtime.Time
	for i := 1; i <= 100; i++ {
		bounds = append(bounds, simtime.Time(3*i)*simtime.Time(tick)+simtime.Time(offsets[i%len(offsets)]))
	}
	oracle, fast := runElisionPair(t, elisionCase{
		boot:   kernelOn(persona.NT40().Kernel),
		bounds: bounds,
	})
	requireCrossed(t, fast)
	inside := 0
	for _, b := range bounds {
		for _, s := range oracle.il.Samples() {
			if s.Done.Add(-s.Elapsed) < b && b < s.Done && s.Elapsed > NominalSample {
				inside++
				break
			}
		}
	}
	if inside == 0 {
		t.Fatalf("no Run boundary fell inside a tick-stretched cycle; the horizon check is vacuous")
	}
	t.Logf("%d of %d boundaries inside a stretched cycle", inside, len(bounds))
}

// TestElisionRecencyAtEveryBoundary runs each persona's bare kernel with
// only the instrument to a boundary every 3 ms. A tick in the record
// segment leaves the handler's data page ahead of the record's, and
// elided cycles that never re-touch the segments would keep that order
// where simulated ones restore it: no counter shows it until an
// eviction reaches those entries, so only the recency check at the
// boundaries can.
func TestElisionRecencyAtEveryBoundary(t *testing.T) {
	for _, p := range persona.All() {
		t.Run(p.Short, func(t *testing.T) {
			var bounds []simtime.Time
			for at := simtime.Time(15 * simtime.Millisecond); at <= simtime.Time(3*simtime.Second); at = at.Add(3 * simtime.Millisecond) {
				bounds = append(bounds, at)
			}
			_, fast := runElisionPair(t, elisionCase{
				boot:   kernelOn(p.Kernel),
				bounds: bounds,
			})
			requireCrossed(t, fast)
		})
	}
}

// FuzzElisionEquivalence drives random sleep/compute workers — their
// priorities, periods, bursts and working sets drawn from the seed — on
// a persona's kernel with the instrument, traced and untraced, to
// random Run boundaries, and requires the two machines to match at every
// boundary and at the end.
func FuzzElisionEquivalence(f *testing.F) {
	// Seed 1775 is a Windows 95 kernel whose idle cycle ends exactly at
	// a tick: the tick fires first, and the reconcile at its handler's
	// end fetches the next cycle while the busy state still holds the
	// handler. A span elided from there once counted itself busy.
	for _, seed := range []uint64{1, 2, 3, 17, 1775, 1996} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		ps := persona.All()
		cfg := ps[r.Intn(len(ps))].Kernel
		if r.Intn(4) == 0 {
			cfg.Machine = machine.Modern2026()
		}
		if r.Intn(3) == 0 {
			cfg.Quantum = simtime.Duration(1+r.Intn(30)) * 500 * simtime.Microsecond
		}
		until := simtime.Time(200+r.Intn(600)) * simtime.Time(simtime.Millisecond)
		var bounds []simtime.Time
		for at := simtime.Time(0); at < until; {
			at = min(at.Add(simtime.Duration(1+r.Intn(40_000))*simtime.Microsecond), until)
			bounds = append(bounds, at)
		}
		type worker struct {
			prio   int
			period simtime.Duration
			burst  cpu.Segment
		}
		workers := make([]worker, 1+r.Intn(3))
		for i := range workers {
			page := uint64(100 + 16*i)
			workers[i] = worker{
				prio:   1 + r.Intn(8),
				period: simtime.Duration(1+r.Intn(120_000)) * simtime.Microsecond,
				burst: cpu.Segment{Name: "burst", BaseCycles: int64(1_000 + r.Intn(2_000_000)),
					Instructions: int64(r.Intn(100_000)), CodePages: []uint64{page, page + 1},
					DataPages: []uint64{page + 8 + uint64(r.Intn(4))}},
			}
		}
		runElisionPair(t, elisionCase{
			boot:   kernelOn(cfg),
			bounds: bounds,
			load: func(k *kernel.Kernel) {
				for i, w := range workers {
					sleep := true
					k.SpawnLoop("worker", kernel.ProcID(1+i), w.prio, func(lc *kernel.LoopTC) bool {
						if sleep {
							lc.Sleep(w.period)
						} else {
							lc.Compute(w.burst)
						}
						sleep = !sleep
						return true
					})
				}
			},
		})
	})
}
