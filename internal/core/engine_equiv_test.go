package core

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/simtime"
	"latlab/internal/spans"
	"latlab/internal/trace"
)

// elisionRun is one booted kernel's observable end state.
type elisionRun struct {
	k       *kernel.Kernel
	samples []trace.IdleSample
}

// runElisionPair runs one scenario twice on cfg: traced, where the
// attached span recorder makes the kernel simulate every idle cycle,
// and untraced, where clean idle cycles are elided analytically. load
// spawns the scenario's threads; the idle-loop instrument (bufCap
// samples) is started first in both runs.
func runElisionPair(cfg kernel.Config, bufCap int, until simtime.Time, load func(k *kernel.Kernel)) (oracle, fast elisionRun) {
	run := func(traced bool) elisionRun {
		k := kernel.New(cfg)
		if traced {
			k.SetRecorder(spans.NewRecorder(k.Now))
		}
		il := StartIdleLoop(k, bufCap)
		load(k)
		k.Run(until)
		k.Shutdown()
		return elisionRun{k: k, samples: il.Samples()}
	}
	return run(true), run(false)
}

// requireIdenticalMachines is the exactness proof for idle elision: the
// untraced run must have elided work, the traced oracle none, and the
// two must be indistinguishable — identical idle-sample traces,
// hardware counters, clock ticks, busy-time accounting, governor level,
// and auxiliary-core busy time.
func requireIdenticalMachines(t *testing.T, oracle, fast elisionRun) {
	t.Helper()
	if n := oracle.k.BulkElided(); n != 0 {
		t.Fatalf("traced kernel elided %d cycles, want 0", n)
	}
	if fast.k.BulkElided() == 0 {
		t.Fatalf("untraced kernel elided no idle cycles — the equivalence check is vacuous")
	}
	if len(oracle.samples) != len(fast.samples) {
		t.Fatalf("sample count diverged: traced %d, untraced %d", len(oracle.samples), len(fast.samples))
	}
	for i := range oracle.samples {
		if oracle.samples[i] != fast.samples[i] {
			t.Fatalf("sample %d diverged: traced %+v, untraced %+v", i, oracle.samples[i], fast.samples[i])
		}
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
}

// TestEngineEquivalence runs the idle-loop instrument against a
// periodically bursting worker for two seconds. The worker's bursts and
// sleeps exercise the straddling-cycle path: every elided span ends at a
// tick, wakeup, or completion, and the cycle crossing it is simulated.
func TestEngineEquivalence(t *testing.T) {
	burst := cpu.Segment{
		Name:         "burst",
		BaseCycles:   300_000,
		Instructions: 200_000,
		DataRefs:     50_000,
		CodePages:    []uint64{7, 8},
		DataPages:    []uint64{9, 10, 11},
	}
	oracle, fast := runElisionPair(kernel.DefaultConfig(), 4096, simtime.Time(2*simtime.Second), func(k *kernel.Kernel) {
		k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
			for i := 0; i < 8; i++ {
				tc.Sleep(150 * simtime.Millisecond)
				tc.Compute(burst)
			}
		})
	})
	requireIdenticalMachines(t, oracle, fast)
}

// TestEngineEquivalenceModernMachine re-proves elision exactness on the
// 2026 profile, where three mechanisms interact with it: DVFS
// transitions re-price the idle loop's cycles (the sigClock guard must
// dirty stale signatures), auxiliary-core housekeeping events land
// inside otherwise-idle stretches, and disk-interrupt coalescing timers
// sit on the event queue.
func TestEngineEquivalenceModernMachine(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Machine = machine.Modern2026()
	oracle, fast := runElisionPair(cfg, 8192, simtime.Time(2*simtime.Second), func(k *kernel.Kernel) {
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
	})
	if oracle.k.AuxBusyTime() == 0 {
		t.Fatalf("housekeeping ran no aux-core work; the aux check is vacuous")
	}
	requireIdenticalMachines(t, oracle, fast)
}

// TestEngineEquivalenceQuantumStraddle pins the subtlest piece of the
// elision replay: idle cycles whose compute chunks straddle scheduler
// quantum boundaries must replicate the slow path's per-chunk completion
// events (sequence numbers) and leftover quantum. A 2.5 ms quantum slices
// each 1 ms idle cycle differently on every iteration.
func TestEngineEquivalenceQuantumStraddle(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Quantum = 2500 * simtime.Microsecond
	oracle, fast := runElisionPair(cfg, 4096, simtime.Time(1500*simtime.Millisecond), func(k *kernel.Kernel) {
		k.Spawn("worker", 1, 8, func(tc *kernel.TC) {
			for i := 0; i < 4; i++ {
				tc.Sleep(300 * simtime.Millisecond)
				tc.Compute(cpu.Segment{Name: "blip", BaseCycles: 50_000, Instructions: 30_000})
			}
		})
	})
	requireIdenticalMachines(t, oracle, fast)
}
