package core

import (
	"latlab/internal/cpu"
	"latlab/internal/kernel"
)

// CounterMeasurement holds the hardware-event counts and cycle cost of
// one measured operation (paper Figs. 9-10).
type CounterMeasurement struct {
	Label  string
	Cycles int64
	Events map[cpu.EventKind]int64
}

// MeasureCounters measures op once per counter *pair*, exactly as the
// Pentium forces: two configurable event counters, system-mode access
// (paper §2.2: "we repeated the test 10 times for each performance
// counter"). The run callback must perform one repetition of the
// operation and return when it is complete (driving the kernel as
// needed); it is invoked ceil(len(kinds)/2) times.
//
// Because each repetition re-runs the operation, warm-up effects between
// repetitions are visible to the caller — run a warm-up first when
// measuring steady state, or don't, to reproduce the paper's cold-start
// observations (§5.3 OLE: "all of the events and the cycle counter
// increased steadily on subsequent runs").
func MeasureCounters(k *kernel.Kernel, label string, kinds []cpu.EventKind, run func()) CounterMeasurement {
	m := CounterMeasurement{Label: label, Events: make(map[cpu.EventKind]int64, len(kinds))}
	f := k.Counters()
	first := true
	for i := 0; i < len(kinds); i += 2 {
		pair := kinds[i:]
		if len(pair) > 2 {
			pair = pair[:2]
		}
		for j, kind := range pair {
			if err := f.Configure(cpu.SystemMode, j, kind); err != nil {
				panic("core: counter configuration failed: " + err.Error())
			}
		}
		startCycles := f.ReadCycles(k.Now())
		run()
		if first {
			// Cycle cost from the first repetition only, so warm-up of
			// later pairs doesn't skew it.
			m.Cycles = f.ReadCycles(k.Now()) - startCycles
			first = false
		}
		for j, kind := range pair {
			v, err := f.Read(cpu.SystemMode, j)
			if err != nil {
				panic("core: counter read failed: " + err.Error())
			}
			m.Events[kind] = v
		}
	}
	return m
}

// TLBAttribution quantifies how much of a latency difference between two
// measurements is explained by extra TLB misses, at a given cycles-per-
// miss cost — the paper's §5.3 argument ("Using 20 cycles per miss as a
// lower bound ... the extra TLB misses account for at least 25% of the
// latency difference").
func TLBAttribution(slow, fast CounterMeasurement, cyclesPerMiss int64) (extraMisses int64, fractionOfDiff float64) {
	slowTLB := slow.Events[cpu.ITLBMisses] + slow.Events[cpu.DTLBMisses]
	fastTLB := fast.Events[cpu.ITLBMisses] + fast.Events[cpu.DTLBMisses]
	extraMisses = slowTLB - fastTLB
	diff := slow.Cycles - fast.Cycles
	if diff <= 0 {
		return extraMisses, 0
	}
	return extraMisses, float64(extraMisses*cyclesPerMiss) / float64(diff)
}
