package core

import (
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// quietConfig is a kernel with all incidental costs zeroed, so tests can
// assert exact times.
func quietConfig() kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.ContextSwitch = cpu.Segment{}
	cfg.ClockInterrupt = cpu.Segment{}
	return cfg
}

func msSeg(name string, ms int64) cpu.Segment {
	return cpu.Segment{Name: name, BaseCycles: ms * 100_000}
}

func TestCalibrateN(t *testing.T) {
	n := CalibrateN(simtime.CPUFrequency)
	total := n*perIterationCycles + recordCycles
	budget := simtime.CPUFrequency.CyclesIn(NominalSample)
	if total > budget || budget-total >= perIterationCycles {
		t.Fatalf("calibration: %d cycles for a %d budget", total, budget)
	}
}

// recordingLoop starts the instrument on k with its sample tap on.
func recordingLoop(k *kernel.Kernel) *IdleLoop {
	il := StartIdleLoop(k)
	il.Record()
	return il
}

// TestIdleLoopOnQuietSystem runs the instrument alone for 200 ms: it
// records ≈1 ms samples back to back from boot, with no busy span. The
// first sample also pays the loop's cold misses (under 1 µs), so the
// 200th ends just after the run does.
func TestIdleLoopOnQuietSystem(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	il := recordingLoop(k)
	k.Run(simtime.Time(200 * simtime.Millisecond))
	samples := il.Samples()
	if len(samples) != 199 {
		t.Fatalf("samples = %d, want 199 in 200 ms", len(samples))
	}
	var prev simtime.Time
	for i, s := range samples {
		if start := s.Done.Add(-s.Elapsed); start != prev {
			t.Fatalf("sample %d starts at %v, want %v where the last one ended", i, start, prev)
		}
		prev = s.Done
	}
	if spans := il.Spans(); len(spans) != 0 {
		t.Fatalf("quiet system has %d busy spans, want 0", len(spans))
	}
	for i, s := range samples {
		slack := s.Elapsed - NominalSample
		if slack < -simtime.Duration(perIterationCycles*10) || slack > simtime.Microsecond {
			t.Fatalf("sample %d elapsed %v, want ≈1ms on an idle system", i, s.Elapsed)
		}
	}
	if il.N() <= 0 {
		t.Fatalf("N = %d", il.N())
	}
}

func TestIdleLoopSeesClockInterrupts(t *testing.T) {
	// Paper §2.5: by coupling the idle loop with the counters, clock
	// interrupt overhead (~400 cycles = 4 µs on NT 4.0) is measurable.
	cfg := quietConfig()
	cfg.ClockInterrupt = cpu.Segment{Name: "clock", BaseCycles: 400}
	k := kernel.New(cfg)
	defer k.Shutdown()
	il := recordingLoop(k)
	k.Run(simtime.Time(500 * simtime.Millisecond))

	elongated := 0
	// Skip the first sample: the instrument's own cold TLB misses show
	// up there (the paper likewise ignores cold-cache cases).
	for _, s := range il.Samples()[1:] {
		if st := s.Stolen(NominalSample); st > 0 {
			if st < 3*simtime.Microsecond || st > 5*simtime.Microsecond {
				t.Fatalf("stolen %v, want ≈4µs per clock tick", st)
			}
			elongated++
		}
	}
	// 500 ms ≈ 50 ticks.
	if elongated < 45 || elongated > 55 {
		t.Fatalf("elongated samples = %d, want ≈50", elongated)
	}
}

func TestIdleLoopMeasuresForegroundBurst(t *testing.T) {
	// Fig. 1 validation: the idle loop must account a known burst almost
	// exactly via elongation.
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	il := recordingLoop(k)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		tc.GetMessage()
		tc.Compute(cpu.Segment{Name: "work", BaseCycles: 976_000}) // 9.76 ms
	})
	k.At(simtime.Time(50*simtime.Millisecond), func(simtime.Time) {
		k.PostMessage(app, kernel.WMChar, 0)
	})
	k.Run(simtime.Time(400 * simtime.Millisecond))

	var stolen simtime.Duration
	for _, s := range il.Samples() {
		stolen += s.Stolen(NominalSample)
	}
	want := simtime.FromMillis(9.76)
	if stolen < want || stolen > want+simtime.FromMillis(0.1) {
		t.Fatalf("total stolen = %v, want ≈%v", stolen, want)
	}
}

func TestBusySpans(t *testing.T) {
	ms := func(f float64) simtime.Duration { return simtime.FromMillis(f) }
	at := func(f float64) simtime.Time { return simtime.Time(simtime.FromMillis(f)) }
	samples := []trace.IdleSample{
		{Done: at(1), Elapsed: ms(1)},
		{Done: at(2), Elapsed: ms(1)},
		{Done: at(5), Elapsed: ms(3)},  // 2 ms stolen
		{Done: at(7), Elapsed: ms(2)},  // 1 ms stolen
		{Done: at(8), Elapsed: ms(1)},  // idle: breaks the span
		{Done: at(10), Elapsed: ms(2)}, // 1 ms stolen
	}
	spans := BusySpans(samples)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Stolen != ms(3) || spans[0].Samples != 2 {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[0].Start != at(2) || spans[0].End != at(7) {
		t.Fatalf("span0 bounds = [%v,%v]", spans[0].Start, spans[0].End)
	}
	if spans[1].Stolen != ms(1) || spans[1].Samples != 1 {
		t.Fatalf("span1 = %+v", spans[1])
	}
}

func TestBusySpansEmptyAndQuiet(t *testing.T) {
	if got := BusySpans(nil); got != nil {
		t.Fatalf("nil samples → %v", got)
	}
	quiet := []trace.IdleSample{{Done: simtime.Time(simtime.Millisecond), Elapsed: simtime.Millisecond}}
	if got := BusySpans(quiet); len(got) != 0 {
		t.Fatalf("quiet trace → %d spans", len(got))
	}
}

// FuzzSpanFold feeds the online fold a random stream of simulated
// samples and elided runs, on a random cycle-counter period. A run's
// cycles are all clean, all elongated, or straddle the busy threshold
// (their two possible lengths fall on either side), and each run's
// first cycle starts after a random gap, so its length is its own. The fold, which takes a run in closed form where it can
// (addCycles), must hold what BusySpans makes of the same stream
// expanded cycle by cycle, and the same last Done.
func FuzzSpanFold(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 17, 1996} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		period := int64(1 + r.Intn(50))
		var fold spanFold
		var samples []trace.IdleSample
		last := int64(0) // counter reading at the last sample's end
		nominal, thr := int64(NominalSample), int64(DefaultBusyThreshold)
		for op := 1 + r.Intn(40); op > 0; op-- {
			if r.Intn(3) == 0 {
				// One simulated sample, stolen time around the threshold.
				end := last + (nominal+int64(r.Intn(int(2*thr+3*period))))/period
				s := trace.IdleSample{Done: simtime.Time(end * period), Elapsed: simtime.Duration((end - last) * period)}
				fold.add(s)
				samples = append(samples, s)
				last = end
				continue
			}
			var cycle int64
			switch r.Intn(3) {
			case 0: // clean: both lengths at or below the threshold
				cycle = nominal - int64(r.Intn(int(nominal/2)))
				if room := thr - period; room > 0 && r.Intn(2) == 0 {
					cycle = nominal + int64(r.Intn(int(room)))
				}
			case 1: // elongated: both lengths above it
				cycle = nominal + thr + period + 1 + int64(r.Intn(5*int(nominal)))
			default: // straddling: dq periods clean, dq+1 elongated
				dq := (nominal + thr) / period
				cycle = dq*period + int64(r.Intn(int(period)))
			}
			c := cycles{from: last, start: last*period + int64(r.Intn(3*int(nominal))),
				cycle: cycle, period: period, n: int64(1 + r.Intn(3000))}
			c.each(func(s trace.IdleSample) { samples = append(samples, s) })
			fold.addCycles(c)
			last = c.end(c.n)
		}
		want := BusySpans(samples)
		requireSameLog(t, "busy span", want, fold.spans)
		if done := samples[len(samples)-1].Done; fold.last != done {
			t.Fatalf("fold's last Done %v, the stream's %v", fold.last, done)
		}
	})
}

func TestStolenMatchesGroundTruth(t *testing.T) {
	// The instrument's total stolen time must track the kernel's ground
	// truth across a messy schedule (several apps, I/O, interrupts).
	cfg := kernel.DefaultConfig() // full costs
	k := kernel.New(cfg)
	defer k.Shutdown()
	il := recordingLoop(k)
	f := k.Cache().AddFile("f", 100_000, 64)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			tc.Compute(msSeg("w", 3))
			tc.ReadFile(f, int64(m.Param%8)*8, 4)
		}
	})
	for i := int64(0); i < 6; i++ {
		i := i
		k.At(simtime.Time(i*100+30)*simtime.Time(simtime.Millisecond), func(simtime.Time) {
			k.KeyboardInterrupt(app, kernel.WMChar, i)
		})
	}
	k.At(simtime.Time(900*simtime.Millisecond), func(simtime.Time) { k.PostMessage(app, kernel.WMQuit, 0) })
	end := k.Run(simtime.Time(simtime.Second))

	var stolen simtime.Duration
	for _, s := range il.Samples() {
		stolen += s.Stolen(NominalSample)
	}
	truth := k.NonIdleBusyTime()
	_ = end
	diff := stolen - truth
	if diff < 0 {
		diff = -diff
	}
	// Within 2% of ground truth plus one sample of slop. The residual is
	// real methodology overhead (context switches to/from the instrument
	// are charged to busy time), just as in the paper.
	if float64(diff) > 0.02*float64(truth)+float64(simtime.Millisecond) {
		t.Fatalf("stolen %v vs ground truth %v (diff %v)", stolen, truth, diff)
	}
}

// The idle loop's two segments touch page lists of one ascending run
// each, the shape internal/mem prices cheapest (see cpu.Segment); a
// list reordered by a later edit fails here instead of silently
// costing more per sample.
func TestIdleLoopSegmentsAreRuns(t *testing.T) {
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	il := StartIdleLoop(k)
	for _, seg := range []cpu.Segment{il.loopSeg, il.recordSeg} {
		for _, list := range [][]uint64{seg.CodePages, seg.DataPages, seg.CacheChunks} {
			for i := 1; i < len(list); i++ {
				if list[i] != list[i-1]+1 {
					t.Errorf("%s: list %v is not one ascending run", seg.Name, list)
					break
				}
			}
		}
	}
}
