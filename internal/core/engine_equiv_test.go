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
	// bulk, when set, stands between each machine's kernel and its
	// instrument as the idle thread's bulk-elision delegate.
	bulk func(k *kernel.Kernel, il *IdleLoop) kernel.BulkLoop
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
// tick, and untraced, where idle cycles whose pages are resident are
// elided analytically and the ticks among them crossed. At every Run
// boundary the two must agree on the stop time, each thread's leftover
// quantum and the TLB and L2 recency order; at the end on everything
// requireIdenticalMachines compares.
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
		if c.bulk != nil {
			r.il.thread.SetBulkLoop(c.bulk(k, r.il))
		}
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
	replay := BusySpans(samples)
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

// levelCrossings forwards the spans the kernel elides to the instrument
// and counts the crossed ticks whose governor step changed the DVFS
// level. Between two OnBulk calls that see ClockTicks and TicksCrossed
// each one higher, exactly one tick was taken, and it was crossed; the
// level moves only at ticks, so a level that differs between the two
// calls changed at that crossed tick.
type levelCrossings struct {
	*IdleLoop
	k                     *kernel.Kernel
	ticks, crossed, level int64
	changed               *int
}

func (c *levelCrossings) OnBulk(n int64, start simtime.Time, cycle simtime.Duration) {
	c.IdleLoop.OnBulk(n, start, cycle)
	ticks, crossed, level := c.k.ClockTicks(), c.k.TicksCrossed(), int64(c.k.DVFSLevel())
	if ticks == c.ticks+1 && crossed == c.crossed+1 && level != c.level {
		*c.changed++
	}
	c.ticks, c.crossed, c.level = ticks, crossed, level
}

// TestEngineEquivalenceModernMachine re-proves elision exactness on the
// 2026 profile, where three mechanisms interact with it: DVFS
// transitions re-price the idle loop's cycles (a crossed tick whose
// governor step changes the level prices its handler at the new clock,
// and so the second segment when it lands in the first, and the cycles
// after it), auxiliary-core housekeeping events land inside
// otherwise-idle stretches, and disk-interrupt coalescing timers sit on
// the event queue. The governor steps down one level per idle tick
// after each burst, so the check is vacuous unless some of those steps
// were crossed.
func TestEngineEquivalenceModernMachine(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Machine = machine.Modern2026()
	levels := map[int]bool{}
	changed := 0
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
		bulk: func(k *kernel.Kernel, il *IdleLoop) kernel.BulkLoop {
			return &levelCrossings{IdleLoop: il, k: k, ticks: k.ClockTicks(), level: int64(k.DVFSLevel()), changed: &changed}
		},
	})
	if oracle.k.AuxBusyTime() == 0 {
		t.Fatalf("housekeeping ran no aux-core work; the aux check is vacuous")
	}
	if len(levels) < 2 {
		t.Fatalf("the governor stayed at one level (%v) at every boundary; the DVFS check is vacuous", levels)
	}
	requireCrossed(t, fast)
	if changed == 0 {
		t.Fatalf("no crossed tick changed the governor level; the re-pricing check is vacuous")
	}
	t.Logf("%d crossed ticks changed the governor level", changed)
}

// TestEngineEquivalenceSwitchDueAtFirstFetch starts the idle thread
// where its first fetch finds its pages resident while a context switch
// is still due: a worker of another process touched the idle loop's
// working set and exited, and the idle thread is the next to run. The
// slow path costs the busy-wait warm, then charges the switch and
// flushes the TLBs before the record segment is costed, so that cycle
// must be simulated: elision may start only where the thread ran last.
func TestEngineEquivalenceSwitchDueAtFirstFetch(t *testing.T) {
	warm := cpu.Segment{Name: "warm", BaseCycles: 50_000, Instructions: 30_000,
		CodePages: []uint64{40}, DataPages: []uint64{41, 42}}
	oracle, fast := runElisionPair(t, elisionCase{
		boot: func() *kernel.Kernel {
			k := kernel.New(persona.NT40().Kernel)
			done := false
			k.SpawnLoop("warmer", 1, 8, func(lc *kernel.LoopTC) bool {
				if done {
					return false
				}
				done = true
				lc.Compute(warm)
				return true
			})
			return k
		},
		bounds: wander(simtime.Time(300*simtime.Millisecond), 3*simtime.Millisecond, 30*simtime.Millisecond),
	})
	il := oracle.il
	for _, seg := range []cpu.Segment{il.loopSeg, il.recordSeg} {
		for _, p := range seg.CodePages {
			if !slices.Contains(warm.CodePages, p) {
				t.Fatalf("the warmer leaves the idle loop's code page %d cold; the check is vacuous", p)
			}
		}
		for _, p := range seg.DataPages {
			if !slices.Contains(warm.DataPages, p) {
				t.Fatalf("the warmer leaves the idle loop's data page %d cold; the check is vacuous", p)
			}
		}
	}
	if first := il.Samples()[0]; first.Elapsed <= NominalSample {
		t.Fatalf("the idle loop's first cycle took %v, no switch stretched it; the check is vacuous", first.Elapsed)
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

// refillCounter forwards the spans the kernel elides to the instrument
// and counts those whose replay refilled the idle thread's quantum. A
// span runs the thread for n warm cycles and a slice never exceeds
// kernel.Quantum, so a span that leaves the thread more than
// kernel.Quantum minus that CPU time must have refilled. A crossed
// tick's cycle reaches OnBulk stretched by the handler, which the
// thread did not run, so the CPU time is counted in warm cycles.
type refillCounter struct {
	*IdleLoop
	refills *int
}

func (c *refillCounter) OnBulk(n int64, start simtime.Time, cycle simtime.Duration) {
	c.IdleLoop.OnBulk(n, start, cycle)
	warm := c.freq.DurationOf(c.loopSeg.BaseCycles + c.recordSeg.BaseCycles)
	if c.thread.QuantumLeft()+simtime.Duration(n)*warm > kernel.Quantum {
		*c.refills++
	}
}

// TestEngineEquivalenceQuantumStraddle runs the elision proof where
// elided spans and crossed ticks straddle quantum refills. The 1 ms
// idle cycle divides the quantum, so the worker's blips set the phase:
// each preempts the idle thread mid-cycle, which resumes with a fresh
// slice, and flushes its TLBs, so the next cycles run long.
func TestEngineEquivalenceQuantumStraddle(t *testing.T) {
	refills := 0
	_, fast := runElisionPair(t, elisionCase{
		boot:   kernelOn(kernel.DefaultConfig()),
		bounds: wander(simtime.Time(1500*simtime.Millisecond), 3*simtime.Millisecond, 40*simtime.Millisecond),
		load: func(k *kernel.Kernel) {
			k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
				for i := 0; i < 4; i++ {
					tc.Sleep(300 * simtime.Millisecond)
					tc.Compute(cpu.Segment{Name: "blip", BaseCycles: 50_000, Instructions: 30_000})
				}
			})
		},
		bulk: func(_ *kernel.Kernel, il *IdleLoop) kernel.BulkLoop { return &refillCounter{il, &refills} },
	})
	requireCrossed(t, fast)
	if refills == 0 {
		t.Fatalf("no elided span refilled the quantum; the straddle check is vacuous")
	}
	t.Logf("%d elided spans refilled the quantum", refills)
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
	// Seed 10893 is a Windows NT 3.51 kernel on which a span elided
	// while the busy state still held a tick's handler would count
	// itself busy: without tryBulkSkip's busy settle, its untraced busy
	// time reads 9 ms over the traced one.
	for _, seed := range []uint64{1, 2, 3, 17, 1996, 10893} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		ps := persona.All()
		cfg := ps[r.Intn(len(ps))].Kernel
		if r.Intn(4) == 0 {
			cfg.Machine = machine.Modern2026()
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
