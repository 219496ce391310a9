package experiments

import (
	"context"
	"strings"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// cfg is the shared full-size configuration; individual tests opt into
// Quick when the full workload adds nothing to the assertion.
func full() Config { return DefaultConfig() }

func quick() Config { return Config{Seed: 1996, Quick: true} }

func renderOK(t *testing.T, r Result) {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if len(sb.String()) < 40 {
		t.Fatalf("render output suspiciously short:\n%s", sb.String())
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	want := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table1", "fig9", "fig10", "fig11", "table2", "fig12", "s54",
		"ext-batching", "ext-thinkwait", "ext-metric", "ext-slowcpu", "ext-interrupts",
		"ext-faults-disk", "ext-faults-irq", "ext-faults-cache",
		"ext-hw-clock", "ext-hw-l2", "ext-hw-tlb", "ext-attrib",
		"ext-modern-clock", "ext-modern-dvfs", "ext-modern-nvme",
		"ext-modern-irq", "ext-modern-smt"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry order[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Fatalf("spec %s incomplete", id)
		}
	}
	if _, ok := ByID("fig7"); !ok {
		t.Fatalf("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatalf("ByID resolved a bogus id")
	}
}

func TestFig1(t *testing.T) {
	r := mustRun(t, runFig1, full()).(*Fig1Result)
	renderOK(t, r)
	// The idle loop must report a larger latency than the conventional
	// in-application measurement (Fig. 1: 9.76 vs 7.42 ms).
	if r.IdleLoop.Mean <= r.Conventional.Mean {
		t.Fatalf("idle-loop %.2fms should exceed conventional %.2fms",
			r.IdleLoop.Mean, r.Conventional.Mean)
	}
	if r.DiscrepancyMs < 1.5 || r.DiscrepancyMs > 3.5 {
		t.Fatalf("discrepancy = %.2fms, want ≈2.34ms", r.DiscrepancyMs)
	}
	if r.IdleLoop.Mean < 8.5 || r.IdleLoop.Mean > 11 {
		t.Fatalf("idle-loop latency = %.2fms, want ≈9.76ms", r.IdleLoop.Mean)
	}
	if r.Conventional.Mean < 6.4 || r.Conventional.Mean > 8.4 {
		t.Fatalf("conventional latency = %.2fms, want ≈7.42ms", r.Conventional.Mean)
	}
	// One elongated sample ≈ 10.7 ms among ≈1 ms samples.
	var maxS float64
	ones := 0
	for _, s := range r.SampleElapsedMs {
		if s > maxS {
			maxS = s
		}
		if s < 1.1 {
			ones++
		}
	}
	if maxS < 9.5 || maxS > 12 {
		t.Fatalf("elongated sample = %.2fms, want ≈10.76ms", maxS)
	}
	if ones < 2 {
		t.Fatalf("expected surrounding ≈1ms samples, got %v", r.SampleElapsedMs)
	}
}

func TestFig3(t *testing.T) {
	r := mustRun(t, runFig3, full()).(*Fig3Result)
	renderOK(t, r)
	if len(r.Systems) != 3 {
		t.Fatalf("systems = %d", len(r.Systems))
	}
	byName := map[string]Fig3Persona{}
	for _, s := range r.Systems {
		byName[s.Persona] = s
	}
	nt40 := byName["Windows NT 4.0"]
	nt351 := byName["Windows NT 3.51"]
	w95 := byName["Windows 95"]
	// §2.5: NT 4.0 clock interrupt ≈400 cycles; bursts at 10 ms intervals.
	if nt40.ClockOverheadCycles < 380 || nt40.ClockOverheadCycles > 520 {
		t.Fatalf("NT4.0 clock overhead = %.0f cycles, want ≈400", nt40.ClockOverheadCycles)
	}
	if nt351.ClockOverheadCycles < nt40.ClockOverheadCycles {
		t.Fatalf("NT3.51 clock overhead should be ≥ NT4.0")
	}
	// Fig. 3: Windows 95 shows a higher level of idle activity.
	if w95.MeanUtil < 2*nt40.MeanUtil {
		t.Fatalf("W95 idle util %.5f should clearly exceed NT4.0 %.5f", w95.MeanUtil, nt40.MeanUtil)
	}
	// Both NTs: ~1 burst per 10 ms → ≈100/s of runtime (2 s run → ≈200).
	if nt40.ClockBursts < 150 || nt40.ClockBursts > 260 {
		t.Fatalf("NT4.0 bursts = %d, want ≈200 over 2s", nt40.ClockBursts)
	}
}

func TestFig4(t *testing.T) {
	r := mustRun(t, runFig4, full()).(*Fig4Result)
	renderOK(t, r)
	// One merged, gapped event with ≈22 animation spikes.
	if !r.Event.Gapped {
		t.Fatalf("maximize event should be gapped (animation pacing)")
	}
	if len(r.AnimationSpikes) < 18 || len(r.AnimationSpikes) > 26 {
		t.Fatalf("animation spikes = %d, want ≈22", len(r.AnimationSpikes))
	}
	// Spikes align on 10 ms clock boundaries (within one sample).
	tick := int64(10 * simtime.Millisecond)
	for _, s := range r.AnimationSpikes {
		off := int64(s) % tick
		if off > int64(2*simtime.Millisecond) && off < tick-int64(2*simtime.Millisecond) {
			t.Fatalf("spike at %v not aligned to 10ms ticks", s)
		}
	}
	// Initial burst ≈80 ms, redraw ≈200 ms.
	if r.InitialBurst < simtime.FromMillis(60) || r.InitialBurst > simtime.FromMillis(110) {
		t.Fatalf("initial burst = %v, want ≈80ms", r.InitialBurst)
	}
	if r.RedrawBurst < simtime.FromMillis(150) || r.RedrawBurst > simtime.FromMillis(260) {
		t.Fatalf("redraw burst = %v, want ≈200ms", r.RedrawBurst)
	}
	// Full event spans ≈ 80 + 220 + 200 ms.
	if r.Event.Latency < simtime.FromMillis(350) || r.Event.Latency > simtime.FromMillis(750) {
		t.Fatalf("maximize event latency = %v, want ≈500ms", r.Event.Latency)
	}
	if len(r.Full) == 0 || len(r.Averaged) == 0 {
		t.Fatalf("profiles empty")
	}
}

func TestFig5(t *testing.T) {
	r := mustRun(t, runFig5, quick()).(*Fig5Result)
	renderOK(t, r)
	if len(r.Events) < 100 {
		t.Fatalf("events = %d", len(r.Events))
	}
	// Fig. 5: the majority of events fall below the 0.1s threshold but a
	// significant number fall above it.
	below, above := 0, 0
	for _, e := range r.Events {
		if e.Latency.Milliseconds() < 100 {
			below++
		} else {
			above++
		}
	}
	if below <= above {
		t.Fatalf("majority should be below 100ms: %d below, %d above", below, above)
	}
	if above == 0 {
		t.Fatalf("a significant number should exceed 100ms")
	}
	if len(r.Magnified) == 0 || r.WindowHi.Sub(r.WindowLo) != 2*simtime.Second {
		t.Fatalf("magnification window wrong: %d events in [%v,%v]",
			len(r.Magnified), r.WindowLo, r.WindowHi)
	}
}

func TestFig6(t *testing.T) {
	r := mustRun(t, runFig6, full()).(*Fig6Result)
	renderOK(t, r)
	byName := map[string]Fig6Persona{}
	for _, s := range r.Systems {
		byName[s.Persona] = s
	}
	nt40, nt351, w95 := byName["Windows NT 4.0"], byName["Windows NT 3.51"], byName["Windows 95"]

	// Keystroke: W95 substantially worse than NT 4.0 (paper §4).
	if w95.Keystroke.Mean < 1.5*nt40.Keystroke.Mean {
		t.Fatalf("W95 keystroke %.2fms not substantially worse than NT4.0 %.2fms",
			w95.Keystroke.Mean, nt40.Keystroke.Mean)
	}
	if nt351.Keystroke.Mean <= nt40.Keystroke.Mean {
		t.Fatalf("NT3.51 keystroke %.2fms should exceed NT4.0 %.2fms (crossings)",
			nt351.Keystroke.Mean, nt40.Keystroke.Mean)
	}
	// Standard deviations in the paper were ≤8% of the mean.
	for name, s := range byName {
		if s.Keystroke.RelStdDev() > 0.10 {
			t.Fatalf("%s keystroke std = %.1f%%, want ≤10%%", name, 100*s.Keystroke.RelStdDev())
		}
	}
	// Mouse click: NT systems sub-millisecond-ish; W95 = press duration.
	if nt40.Click.Mean > 2 || nt351.Click.Mean > 2 {
		t.Fatalf("NT click latencies should be tiny: %.2f / %.2f ms",
			nt40.Click.Mean, nt351.Click.Mean)
	}
	if !w95.ClickIsPressDuration {
		t.Fatalf("W95 must be flagged as busy-wait")
	}
	if w95.Click.Mean < 0.8*r.MeanHoldMs || w95.Click.Mean > 1.3*r.MeanHoldMs {
		t.Fatalf("W95 click %.1fms should track the press duration ≈%.1fms",
			w95.Click.Mean, r.MeanHoldMs)
	}
	if w95.Click.Mean < 25*nt40.Click.Mean {
		t.Fatalf("W95 click should be off the scale relative to NT")
	}
}

func TestFig7(t *testing.T) {
	r := mustRun(t, runFig7, full()).(*Fig7Result)
	renderOK(t, r)
	byName := map[string]Fig7Persona{}
	for _, s := range r.Systems {
		byName[s.Persona] = s
	}
	nt40, nt351, w95 := byName["Windows NT 4.0"], byName["Windows NT 3.51"], byName["Windows 95"]

	for name, s := range byName {
		// §5.1: >80% of total latency from events under 10 ms.
		if s.FractionUnder10ms < 0.8 {
			t.Fatalf("%s: %.0f%% of latency from <10ms events, want >80%%",
				name, 100*s.FractionUnder10ms)
		}
		// The long-latency keystrokes (refreshes) are ≥ ~28 ms.
		longest := 0.0
		for _, l := range s.Report.Latencies() {
			if l > longest {
				longest = l
			}
		}
		if longest < 25 || longest > 60 {
			t.Fatalf("%s: longest Notepad event %.1fms, want ≈28-45ms", name, longest)
		}
	}

	// The Fig. 7 anomaly: W95 smallest cumulative latency, largest busy
	// elapsed time (WM_QUEUESYNC processing).
	if !(w95.Report.TotalLatency() < nt40.Report.TotalLatency() &&
		nt40.Report.TotalLatency() < nt351.Report.TotalLatency()) {
		t.Fatalf("cumulative latency ordering want W95 < NT40 < NT351: %v / %v / %v",
			w95.Report.TotalLatency(), nt40.Report.TotalLatency(), nt351.Report.TotalLatency())
	}
	if !(w95.ElapsedBusy > nt40.ElapsedBusy && w95.ElapsedBusy > nt351.ElapsedBusy) {
		t.Fatalf("busy elapsed want W95 largest: %v / %v / %v",
			w95.ElapsedBusy, nt40.ElapsedBusy, nt351.ElapsedBusy)
	}
}

func TestFig8AndTable1(t *testing.T) {
	fig8 := mustRun(t, runFig8, full()).(*Fig8Result)
	renderOK(t, fig8)
	table1 := mustRun(t, runTable1, full()).(*Table1Result)
	renderOK(t, table1)

	// Six events with latency >1s on both systems, in nearly the same
	// relative order (paper §5.2): save, start, OLE1, open, OLE2, OLE3.
	if len(table1.Rows) < 6 {
		t.Fatalf("long events = %d, want ≥6: %+v", len(table1.Rows), table1.Rows)
	}
	get := func(label string) Table1Row {
		for _, r := range table1.Rows {
			if strings.HasPrefix(r.Event, label) {
				return r
			}
		}
		t.Fatalf("missing Table 1 row %q in %+v", label, table1.Rows)
		return Table1Row{}
	}
	save := get("Save document")
	start := get("Start Powerpoint")
	open := get("Open document")
	ole1 := get("Start OLE edit session (object 1)")
	ole2 := get("Start OLE edit session (object 2)")
	ole3 := get("Start OLE edit session (object 3)")

	// Save is the one event *slower* on NT 4.0 (9.58 vs 8.08 s).
	if save.NT40Sec <= save.NT351Sec {
		t.Fatalf("save: NT4.0 %.2fs should exceed NT3.51 %.2fs", save.NT40Sec, save.NT351Sec)
	}
	// Every other long event is faster on NT 4.0.
	for _, row := range []Table1Row{start, open, ole1, ole2, ole3} {
		if row.NT40Sec >= row.NT351Sec {
			t.Fatalf("%s: NT4.0 %.2fs should beat NT3.51 %.2fs", row.Event, row.NT40Sec, row.NT351Sec)
		}
	}
	// Buffer-cache warming: OLE1 > OLE2 > OLE3 on both systems.
	if !(ole1.NT40Sec > ole2.NT40Sec && ole2.NT40Sec > ole3.NT40Sec) {
		t.Fatalf("NT4.0 OLE warming broken: %.2f/%.2f/%.2f", ole1.NT40Sec, ole2.NT40Sec, ole3.NT40Sec)
	}
	if !(ole1.NT351Sec > ole2.NT351Sec && ole2.NT351Sec > ole3.NT351Sec) {
		t.Fatalf("NT3.51 OLE warming broken: %.2f/%.2f/%.2f", ole1.NT351Sec, ole2.NT351Sec, ole3.NT351Sec)
	}
	// Magnitude bands vs the paper's Table 1 (generous ±45%).
	band := func(name string, got, paper float64) {
		t.Helper()
		if got < paper*0.55 || got > paper*1.45 {
			t.Fatalf("%s = %.2fs, outside ±45%% of paper's %.2fs", name, got, paper)
		}
	}
	band("save nt351", save.NT351Sec, 8.082)
	band("save nt40", save.NT40Sec, 9.580)
	band("start nt351", start.NT351Sec, 7.166)
	band("start nt40", start.NT40Sec, 5.773)
	band("ole1 nt351", ole1.NT351Sec, 7.050)
	band("ole1 nt40", ole1.NT40Sec, 5.844)
	band("open nt351", open.NT351Sec, 5.680)
	band("open nt40", open.NT40Sec, 4.151)
	band("ole2 nt40", ole2.NT40Sec, 2.009)
	band("ole3 nt40", ole3.NT40Sec, 1.305)

	// Fig. 8: "While most of the events ... are relatively short (under
	// 500 ms), the majority of the time is spent in long-latency events."
	for _, s := range fig8.Systems {
		if len(s.Report.Events) == 0 {
			t.Fatalf("%s: no events ≥50ms", s.Persona)
		}
		short := 0
		var total, longLat float64
		for _, l := range s.Report.Latencies() {
			total += l
			if l < 500 {
				short++
			}
			if l > 1000 {
				longLat += l
			}
		}
		if frac := float64(short) / float64(len(s.Report.Events)); frac < 0.5 {
			t.Fatalf("%s: only %.0f%% of events under 500ms", s.Persona, 100*frac)
		}
		if longLat/total < 0.5 {
			t.Fatalf("%s: long events carry %.0f%% of time, want majority",
				s.Persona, 100*longLat/total)
		}
	}
}

// TestTracedPowerPointAfterUntraced pins that a traced fig8 run
// simulates its own PowerPoint task, and so exports its track, even
// after an untraced run of the same configuration filled the memo.
func TestTracedPowerPointAfterUntraced(t *testing.T) {
	mustRun(t, runFig8, quick())
	col := &spans.Collector{}
	traced := quick()
	traced.Trace, traced.TraceTag = col, "fig8"
	mustRun(t, runFig8, traced)
	have := map[string]int{}
	for _, tr := range col.Tracks() {
		have[tr.Name] = len(tr.Spans)
	}
	for _, p := range persona.NTs() {
		name := "fig8: " + p.Name + " @ " + machine.Pentium100().Short
		if have[name] == 0 {
			t.Errorf("traced fig8 exported no PowerPoint track %q; tracks: %v", name, have)
		}
	}
}

// TestPowerPointMemoKeyedOnMachine pins that the PowerPoint memo keys
// on the machine: a fig8 run on a faster machine after one on the paper's
// must simulate anew, not reuse the first machine's events.
func TestPowerPointMemoKeyedOnMachine(t *testing.T) {
	p100 := mustRun(t, runFig8, quick()).(*Fig8Result)
	fast := quick()
	fast.Machine = machine.Pentium200()
	p200 := mustRun(t, runFig8, fast).(*Fig8Result)
	for i := range p100.Systems {
		a, b := p100.Systems[i].Report.Elapsed, p200.Systems[i].Report.Elapsed
		if a == b {
			t.Errorf("%s: the PowerPoint task took %v on p100 and on p200; the p200 run reused the memo",
				p100.Systems[i].Persona, a)
		}
	}
}

func TestFig9PageDownCounters(t *testing.T) {
	r := mustRun(t, runFig9, full()).(*CounterResult)
	renderOK(t, r)
	byLabel := map[string]int64{}
	tlb := map[string]int64{}
	segLoads := map[string]int64{}
	for _, m := range r.Systems {
		byLabel[m.Label] = m.Cycles
		tlb[m.Label] = m.Events[cpu.ITLBMisses] + m.Events[cpu.DTLBMisses]
		segLoads[m.Label] = m.Events[cpu.SegmentLoads]
	}
	// Latency ordering: NT 4.0 fastest, then W95, then NT 3.51 (§5.3).
	if !(byLabel["nt40"] < byLabel["w95"] && byLabel["w95"] < byLabel["nt351"]) {
		t.Fatalf("cycle ordering want nt40 < w95 < nt351: %v", byLabel)
	}
	// TLB attribution ≥25% of the NT difference at 20 cyc/miss.
	if r.TLBFraction351 < 0.23 {
		t.Fatalf("TLB fraction = %.0f%%, want ≥25%%", 100*r.TLBFraction351)
	}
	if r.TLBExtra351 <= 0 {
		t.Fatalf("NT3.51 should have extra TLB misses")
	}
	// W95: ≈93% more TLB misses than NT 4.0.
	if r.W95TLBRatio < 1.5 || r.W95TLBRatio > 2.4 {
		t.Fatalf("W95/NT40 TLB ratio = %.2f, want ≈1.93", r.W95TLBRatio)
	}
	// Segment loads: large for W95, zero for the NTs.
	if segLoads["w95"] == 0 || segLoads["nt40"] != 0 || segLoads["nt351"] != 0 {
		t.Fatalf("segment loads: %v", segLoads)
	}
}

func TestFig10OLECounters(t *testing.T) {
	r := mustRun(t, runFig10, full()).(*CounterResult)
	renderOK(t, r)
	byLabel := map[string]int64{}
	for _, m := range r.Systems {
		byLabel[m.Label] = m.Cycles
	}
	if !(byLabel["nt40"] < byLabel["w95"] && byLabel["w95"] < byLabel["nt351"]) {
		t.Fatalf("cycle ordering want nt40 < w95 < nt351: %v", byLabel)
	}
	// ≥23% of the NT difference from TLB misses at 20 cyc/miss (§5.3).
	if r.TLBFraction351 < 0.21 {
		t.Fatalf("TLB fraction = %.0f%%, want ≥23%%", 100*r.TLBFraction351)
	}
}

func TestFig11Word(t *testing.T) {
	r := mustRun(t, runFig11, full()).(*Fig11Result)
	renderOK(t, r)
	byName := map[string]Fig11Persona{}
	for _, s := range r.Systems {
		byName[s.Persona] = s
	}
	nt40, nt351 := byName["Windows NT 4.0"], byName["Windows NT 3.51"]
	// NT 4.0: shorter response time and lower variance (§5.4/Fig. 11).
	if nt40.Summary.Mean >= nt351.Summary.Mean {
		t.Fatalf("NT4.0 mean %.1fms should beat NT3.51 %.1fms", nt40.Summary.Mean, nt351.Summary.Mean)
	}
	if nt40.Summary.StdDev > nt351.Summary.StdDev*1.05 {
		t.Fatalf("NT4.0 std %.1f should not exceed NT3.51 %.1f", nt40.Summary.StdDev, nt351.Summary.StdDev)
	}
	// Both systems have most latencies below the perception threshold.
	for name, s := range byName {
		below := 0
		for _, l := range s.Report.Latencies() {
			if l < 100 {
				below++
			}
		}
		if frac := float64(below) / float64(len(s.Report.Events)); frac < 0.6 {
			t.Fatalf("%s: only %.0f%% below 100ms", name, 100*frac)
		}
	}
}

func TestTable2Interarrival(t *testing.T) {
	r := mustRun(t, runTable2, full()).(*Table2Result)
	renderOK(t, r)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	c100, c110, c120 := r.Rows[0].Count, r.Rows[1].Count, r.Rows[2].Count
	if r.TotalEvents < 900 {
		t.Fatalf("events = %d, want ≈1000+", r.TotalEvents)
	}
	// Counts decline steeply: paper 101 → 26 → 8.
	if c100 < 40 || c100 > 220 {
		t.Fatalf(">100ms count = %d, want ≈101", c100)
	}
	if float64(c100) < 2.5*float64(c110) {
		t.Fatalf("10%% threshold increase should cut events ≈4x: %d → %d", c100, c110)
	}
	if c120 >= c110 {
		t.Fatalf("counts must keep declining: %d → %d", c110, c120)
	}
	// No strong periodicity: std of the same order as the mean.
	for _, row := range r.Rows[:2] {
		if row.Count >= 5 {
			ratio := row.StdDevSec / row.MeanSec
			if ratio < 0.4 || ratio > 2.5 {
				t.Fatalf("threshold %v: std/mean = %.2f, want same order (no periodicity)",
					row.ThresholdMs, ratio)
			}
		}
	}
}

func TestFig12TimeSeries(t *testing.T) {
	r := mustRun(t, runFig12, full()).(*Fig12Result)
	renderOK(t, r)
	if len(r.Systems) != 2 {
		t.Fatalf("systems = %d", len(r.Systems))
	}
	var nt351, nt40 float64
	for _, s := range r.Systems {
		if len(s.Events) < 5 {
			t.Fatalf("%s: only %d long events", s.Persona, len(s.Events))
		}
		if s.Persona == "Windows NT 3.51" {
			nt351 = s.MeanInterarrivalMs
		} else {
			nt40 = s.MeanInterarrivalMs
		}
	}
	// NT 4.0 shows slightly shorter interarrivals (completion-paced).
	if nt40 >= nt351 {
		t.Fatalf("NT4.0 interarrival %.0fms should be below NT3.51 %.0fms", nt40, nt351)
	}
}

func TestS54TestVsHand(t *testing.T) {
	r := mustRun(t, runS54, full()).(*S54Result)
	renderOK(t, r)
	if r.TestTypical.Mean < 70 || r.TestTypical.Mean > 110 {
		t.Fatalf("Test typical = %.1fms, want ≈80-100", r.TestTypical.Mean)
	}
	if r.HandTypical.Mean < 22 || r.HandTypical.Mean > 45 {
		t.Fatalf("hand typical = %.1fms, want ≈32", r.HandTypical.Mean)
	}
	if r.TestMaxMs > 160 {
		t.Fatalf("Test max = %.1fms, want ≤≈140", r.TestMaxMs)
	}
	if r.HandMaxMs < 200 {
		t.Fatalf("hand max = %.1fms, want >200 (carriage returns)", r.HandMaxMs)
	}
	if r.HandBackgroundBursts <= r.TestBackgroundBursts {
		t.Fatalf("hand background %d should exceed Test %d", r.HandBackgroundBursts, r.TestBackgroundBursts)
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	run := func(context.Context, Config) (Result, error) { return nil, nil }
	// fig1 is already registered; a duplicate must panic before mutating
	// the registry.
	before := len(All())
	mustPanic("duplicate", func() { Register(Spec{ID: "fig1", Run: run}) })
	mustPanic("empty id", func() { Register(Spec{Run: run}) })
	mustPanic("nil run", func() { Register(Spec{ID: "unregistered-test-id"}) })
	if got := len(All()); got != before {
		t.Fatalf("failed Register mutated the registry: %d -> %d specs", before, got)
	}
}

func TestSortSpecsUnknownIDsKeepRegistrationOrder(t *testing.T) {
	run := func(context.Context, Config) (Result, error) { return nil, nil }
	specs := []Spec{
		{ID: "zz-new-2", Run: run},
		{ID: "fig3", Run: run},
		{ID: "aa-new-1", Run: run},
		{ID: "fig1", Run: run},
	}
	got := sortSpecs(specs)
	want := []string{"fig1", "fig3", "zz-new-2", "aa-new-1"}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("sortSpecs order[%d] = %s, want %s (unknown ids must keep registration order)", i, got[i].ID, id)
		}
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range []func(context.Context, Config) (Result, error){
		runFig1, runFig3, runFig7, runExtThinkWait,
	} {
		if _, err := f(ctx, quick()); err == nil {
			t.Fatalf("cancelled context should abort the run")
		}
	}
}

func TestArtifactsAreDeterministic(t *testing.T) {
	r := mustRun(t, runFig7, quick())
	ap, ok := r.(ArtifactProvider)
	if !ok {
		t.Fatalf("Fig7Result must provide artifacts")
	}
	arts := ap.Artifacts()
	// 3 personas x (events + report), declared in persona order.
	if len(arts) != 6 {
		t.Fatalf("artifacts = %d, want 6", len(arts))
	}
	again := ap.Artifacts()
	for i := range arts {
		if arts[i].Kind != again[i].Kind || arts[i].Name != again[i].Name {
			t.Fatalf("artifact order not deterministic at %d: %v vs %v", i, arts[i], again[i])
		}
		if arts[i].Samples() == 0 {
			t.Fatalf("artifact %s/%s has no samples", arts[i].Kind, arts[i].Name)
		}
	}
	if arts[0].Kind != ArtifactEvents || arts[1].Kind != ArtifactReport {
		t.Fatalf("per-persona artifact kinds wrong: %v, %v", arts[0].Kind, arts[1].Kind)
	}
}
