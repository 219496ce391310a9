// Package latlab's benchmark harness: one testing.B benchmark per table
// and figure in the paper's evaluation, each regenerating the artifact
// at paper-sized workloads and reporting its headline quantity as a
// custom metric, plus ablation benchmarks for the design choices
// DESIGN.md calls out (crossing flushes, 16-bit costs, Test's
// WM_QUEUESYNC, buffer-cache warming).
//
// Run with:
//
//	go test -bench=. -benchmem
package latlab

import (
	"context"
	"io"
	"testing"

	"latlab/internal/apps"
	"latlab/internal/campaign"
	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/experiments"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
	"latlab/internal/trace"
	"latlab/internal/winsys"
)

func cfg() experiments.Config { return experiments.DefaultConfig() }

// runExperiment executes the registered experiment b.N times, rendering
// to io.Discard (rendering cost is part of regenerating the artifact).
func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	spec, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = spec.Run(context.Background(), cfg())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFig1IdleLoopValidation(b *testing.B) {
	r := runExperiment(b, "fig1").(*experiments.Fig1Result)
	b.ReportMetric(r.IdleLoop.Mean, "idleloop-ms")
	b.ReportMetric(r.Conventional.Mean, "conventional-ms")
	b.ReportMetric(r.DiscrepancyMs, "missed-ms")
}

func BenchmarkFig3IdleProfiles(b *testing.B) {
	r := runExperiment(b, "fig3").(*experiments.Fig3Result)
	for _, s := range r.Systems {
		if s.Persona == "Windows NT 4.0" {
			b.ReportMetric(s.ClockOverheadCycles, "nt40-clock-cycles")
		}
	}
}

func BenchmarkFig4WindowMaximize(b *testing.B) {
	r := runExperiment(b, "fig4").(*experiments.Fig4Result)
	b.ReportMetric(r.Event.Latency.Milliseconds(), "maximize-ms")
	b.ReportMetric(float64(len(r.AnimationSpikes)), "animation-spikes")
}

func BenchmarkFig5RawTrace(b *testing.B) {
	r := runExperiment(b, "fig5").(*experiments.Fig5Result)
	b.ReportMetric(float64(len(r.Events)), "events")
}

func BenchmarkFig6SimpleEvents(b *testing.B) {
	r := runExperiment(b, "fig6").(*experiments.Fig6Result)
	for _, s := range r.Systems {
		switch s.Persona {
		case "Windows NT 4.0":
			b.ReportMetric(s.Keystroke.Mean, "nt40-key-ms")
		case "Windows 95":
			b.ReportMetric(s.Keystroke.Mean, "w95-key-ms")
			b.ReportMetric(s.Click.Mean, "w95-click-ms")
		}
	}
}

func BenchmarkFig7Notepad(b *testing.B) {
	r := runExperiment(b, "fig7").(*experiments.Fig7Result)
	for _, s := range r.Systems {
		if s.Persona == "Windows 95" {
			b.ReportMetric(s.Report.TotalLatency().Milliseconds(), "w95-cumlat-ms")
			b.ReportMetric(100*s.FractionUnder10ms, "w95-under10ms-pct")
		}
	}
}

func BenchmarkFig8Powerpoint(b *testing.B) {
	r := runExperiment(b, "fig8").(*experiments.Fig8Result)
	for _, s := range r.Systems {
		if s.Persona == "Windows NT 4.0" {
			b.ReportMetric(float64(len(s.Report.Events)), "nt40-long-events")
		}
	}
}

func BenchmarkTable1LongEvents(b *testing.B) {
	r := runExperiment(b, "table1").(*experiments.Table1Result)
	for _, row := range r.Rows {
		switch row.Event {
		case "Save document":
			b.ReportMetric(row.NT40Sec, "save-nt40-s")
			b.ReportMetric(row.NT351Sec, "save-nt351-s")
		case "Start Powerpoint":
			b.ReportMetric(row.NT40Sec, "start-nt40-s")
		}
	}
}

func BenchmarkFig9PageDownCounters(b *testing.B) {
	r := runExperiment(b, "fig9").(*experiments.CounterResult)
	b.ReportMetric(100*r.TLBFraction351, "tlb-share-pct")
	b.ReportMetric(r.W95TLBRatio, "w95-tlb-ratio")
}

func BenchmarkFig10OLECounters(b *testing.B) {
	r := runExperiment(b, "fig10").(*experiments.CounterResult)
	b.ReportMetric(100*r.TLBFraction351, "tlb-share-pct")
}

func BenchmarkFig11Word(b *testing.B) {
	r := runExperiment(b, "fig11").(*experiments.Fig11Result)
	for _, s := range r.Systems {
		if s.Persona == "Windows NT 4.0" {
			b.ReportMetric(s.Summary.Mean, "nt40-mean-ms")
		} else {
			b.ReportMetric(s.Summary.Mean, "nt351-mean-ms")
		}
	}
}

func BenchmarkTable2Interarrival(b *testing.B) {
	r := runExperiment(b, "table2").(*experiments.Table2Result)
	b.ReportMetric(float64(r.Rows[0].Count), "over100ms")
	b.ReportMetric(float64(r.Rows[1].Count), "over110ms")
	b.ReportMetric(float64(r.Rows[2].Count), "over120ms")
}

func BenchmarkFig12TimeSeries(b *testing.B) {
	r := runExperiment(b, "fig12").(*experiments.Fig12Result)
	for _, s := range r.Systems {
		if s.Persona == "Windows NT 4.0" {
			b.ReportMetric(s.MeanInterarrivalMs/1000, "nt40-interarrival-s")
		}
	}
}

func BenchmarkS54TestVsHand(b *testing.B) {
	r := runExperiment(b, "s54").(*experiments.S54Result)
	b.ReportMetric(r.TestTypical.Mean, "test-ms")
	b.ReportMetric(r.HandTypical.Mean, "hand-ms")
}

// --- Ablation benchmarks -------------------------------------------------
//
// Each ablation switches one modelled mechanism off and reports the same
// headline number, so the contribution of the mechanism is visible in
// the benchmark output.

// keystrokeLatency measures the mean unbound-keystroke latency under p
// on m.
func keystrokeLatency(b *testing.B, p persona.P, m machine.Profile) float64 {
	b.Helper()
	sys := system.New(system.Config{Persona: p, Machine: m})
	defer sys.Shutdown()
	probe := core.AttachProbe(sys.K)
	idle := core.StartIdleLoop(sys.K)
	app := sys.SpawnApp("bench", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind == kernel.WMQuit {
				return
			}
			sys.Win.KeyTranslate(tc)
			sys.Win.DefWindowProc(tc)
		}
	})
	sys.Win.BindApp([]uint64{345, 346})
	for i := 0; i < 20; i++ {
		at := simtime.Time(200+int64(i)*250) * simtime.Time(simtime.Millisecond)
		sys.K.At(at, func(simtime.Time) { sys.Inject(kernel.WMKeyDown, 'a', false) })
	}
	sys.K.Run(simtime.Time(6 * simtime.Second))
	events := idle.Extract(probe.Msgs, core.ExtractOptions{Thread: app.ID()})
	var sum float64
	for _, e := range events[1:] { // drop the cold trial
		sum += e.Latency.Milliseconds()
	}
	return sum / float64(len(events)-1)
}

// BenchmarkAblationCrossingFlush quantifies the NT 3.51 server
// architecture: the same keystroke on the paper's Pentium, whose
// untagged TLBs every protection-domain crossing and process switch
// flushes, then on the same machine with tagged TLBs, which keep their
// entries, first with the crossing's direct cost and then without it.
func BenchmarkAblationCrossingFlush(b *testing.B) {
	var with, noFlush, free float64
	for i := 0; i < b.N; i++ {
		p := persona.NT351()
		with = keystrokeLatency(b, p, machine.Pentium100())
		noFlush = keystrokeLatency(b, p, machine.PentiumTaggedTLB())
		p.Kernel.DomainCrossingCycles = 0
		free = keystrokeLatency(b, p, machine.PentiumTaggedTLB())
	}
	b.ReportMetric(with, "with-flush-ms")
	b.ReportMetric(noFlush, "no-flush-ms")
	b.ReportMetric(free, "no-crossing-cost-ms")
}

// BenchmarkAblation16BitCosts quantifies the Windows 95 16-bit signature
// (segment loads, unaligned accesses, wider data windows).
func BenchmarkAblation16BitCosts(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		p := persona.W95()
		with = keystrokeLatency(b, p, machine.Pentium100())
		clean := p
		clean.SegLoadsPerKCycle = 0
		clean.UnalignedPerKCycle = 0
		clean.DataWindowScale = 1.0
		without = keystrokeLatency(b, clean, machine.Pentium100())
	}
	b.ReportMetric(with, "w95-ms")
	b.ReportMetric(without, "w95-no16bit-ms")
}

// BenchmarkAblationQueueSync quantifies the Microsoft Test artifact on
// Notepad: identical input with and without WM_QUEUESYNC, without
// stripping.
func BenchmarkAblationQueueSync(b *testing.B) {
	run := func(sync bool) simtime.Duration {
		sys := system.New(system.Config{Persona: persona.W95()})
		defer sys.Shutdown()
		probe := core.AttachProbe(sys.K)
		idle := core.StartIdleLoop(sys.K)
		n := apps.NewNotepad(sys)
		script := &input.Script{
			Events:    input.TypeText(simtime.Time(300*simtime.Millisecond), input.SampleText(60), 120*simtime.Millisecond),
			QueueSync: sync,
		}
		script.Install(sys)
		sys.K.Run(script.End().Add(simtime.Second))
		events := idle.Extract(probe.Msgs, core.ExtractOptions{Thread: n.Thread().ID()})
		var total simtime.Duration
		for _, e := range events {
			total += e.Latency
		}
		return total
	}
	var with, without simtime.Duration
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with.Milliseconds(), "with-queuesync-ms")
	b.ReportMetric(without.Milliseconds(), "without-ms")
}

// BenchmarkAblationBufferCache quantifies buffer-cache warming on OLE
// activation: cold vs warm session cost.
func BenchmarkAblationBufferCache(b *testing.B) {
	var cold, warm simtime.Duration
	for i := 0; i < b.N; i++ {
		sys := system.New(system.Config{Persona: persona.NT40()})
		ppt := apps.NewPowerpoint(sys, apps.DefaultPowerpointParams())
		_ = ppt
		drive := func(kind kernel.MsgKind, param int64) simtime.Duration {
			start := sys.K.Now()
			sys.K.At(sys.K.Now()+1, func(simtime.Time) { sys.Inject(kind, param, false) })
			for {
				sys.K.RunFor(10 * simtime.Millisecond)
				f := sys.Focus()
				if f.State() == kernel.StateBlockedMsg && f.QueueLen() == 0 &&
					sys.K.SyncIOOutstanding() == 0 {
					break
				}
			}
			return sys.K.Now().Sub(start)
		}
		drive(kernel.WMCommand, apps.CmdLaunch)
		drive(kernel.WMCommand, apps.CmdOpen)
		cold = drive(kernel.WMCommand, apps.CmdEditObject+0)
		drive(kernel.WMCommand, apps.CmdEndEdit)
		drive(kernel.WMCommand, apps.CmdEditObject+0) // object data now warm
		drive(kernel.WMCommand, apps.CmdEndEdit)
		warm = drive(kernel.WMCommand, apps.CmdEditObject+0)
		sys.Shutdown()
	}
	b.ReportMetric(cold.Seconds(), "cold-activate-s")
	b.ReportMetric(warm.Seconds(), "warm-activate-s")
}

// BenchmarkSimulatorThroughput reports raw simulator speed: simulated
// seconds per wall second for an idle NT 4.0 machine with the instrument
// running. It is the gated single-machine stepping benchmark: per op,
// one machine is booted, run alone to a 10 s horizon and released, as a
// campaign cell drives each of its sessions.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := system.New(system.Config{Persona: persona.NT40()})
		core.StartIdleLoop(sys.K)
		sys.K.Run(simtime.Time(10 * simtime.Second))
		sys.Shutdown()
	}
	b.ReportMetric(10*float64(b.N), "sim-seconds")
}

// runUntilDone steps k a simulated second at a time until t exits.
func runUntilDone(k *kernel.Kernel, t *kernel.Thread) {
	for t.State() != kernel.StateDone {
		k.RunFor(simtime.Second)
	}
}

// BenchmarkThreadHandshake reports one coroutine round trip between an
// application thread and the kernel: per op, one TC.Compute of a
// 1 µs segment, the path application bodies still take for each
// primitive they issue outside a kernel loop.
//
// Its warm-up, and BenchmarkWinsysCall's, is the one op that allocates
// state the timed loop would otherwise count, spread over b.N. Here
// that is the event queue's first heap (384 B), made when the thread's
// first context switch schedules a reconcile; a coroutine resume
// allocates nothing.
func BenchmarkThreadHandshake(b *testing.B) {
	k := kernel.New(kernel.DefaultConfig())
	defer k.Shutdown()
	seg := cpu.Segment{Name: "step", BaseCycles: 100, Instructions: 60}
	t := k.Spawn("app", 1, system.AppPrio, func(tc *kernel.TC) {
		tc.Compute(seg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tc.Compute(seg)
		}
	})
	b.ReportAllocs()
	runUntilDone(k, t)
}

// BenchmarkWinsysCall reports one run of window-system calls: per op, a
// RepaintLines(26) on NT 3.51 with an application bound, 26 calls of
// glue, crossing, server segment and return crossing, issued as one
// kernel loop (TestWinsysCallIsOneHandshake pins the single coroutine
// resume). allocs/op is the tripwire for the call-sequence free list.
func BenchmarkWinsysCall(b *testing.B) {
	p := persona.NT351()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := winsys.New(k, p)
	w.BindApp([]uint64{300, 301, 302, 303, 304, 305})
	t := k.Spawn("app", 1, system.AppPrio, func(tc *kernel.TC) {
		// One untimed call grows the TLB and cache LRUs to the call's
		// working set and fills the call-sequence free list.
		w.RepaintLines(tc, 26)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RepaintLines(tc, 26)
		}
	})
	b.ReportAllocs()
	runUntilDone(k, t)
}

// BenchmarkBoot reports what starting and releasing one campaign session
// costs: experiments.OpenScenarioSession (machine, application, typing
// script) then Close, on the demo-type scenario, opened as
// campaign.RunCells opens its sessions. The simulator benchmarks above
// boot only as a side effect of long runs, so boot cost sits inside
// their noise; here it is the whole op, and allocs/op is the tripwire.
// p100-quick is the campaign demo's session, m2026 the 2026 machine in
// full mode, whose L2 alone models 131,072 lines.
func BenchmarkBoot(b *testing.B) {
	doc, err := scenario.ParseFile("testdata/campaigns/demo-type.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, machine string
		quick         bool
	}{
		{"p100-quick", "p100", true},
		{"m2026", "m2026", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			doc.Machine = c.machine
			cfg := experiments.Config{Seed: 1, Quick: c.quick}
			open := func() {
				s, err := experiments.OpenScenarioSession(cfg, doc)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			open() // one untimed op, as before every timed loop here
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				open()
			}
		})
	}
}

// BenchmarkRunCells reports what a campaign run allocates per op: the
// first four cells of the engine tests' mini campaign
// (internal/campaign/testdata/mini.json; 4 cells × 6 quick typing
// sessions on nt40 @ p100) through campaign.RunCells at one worker,
// records discarded. Sessions store no idle samples, only the busy
// spans their instrument folds; one that stored its samples again, or
// pre-sized a buffer for them, would add hundreds of kilobytes per op
// for a handful of allocations, so B/op is the tripwire.
func BenchmarkRunCells(b *testing.B) {
	c, err := campaign.LoadSpec("internal/campaign/testdata/mini.json")
	if err != nil {
		b.Fatal(err)
	}
	cells := campaign.Cells(c)[:4]
	opt := campaign.Options{Jobs: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := campaign.RunCells(context.Background(), c, cells, opt,
			func(campaign.Record) error { return nil })
		if err != nil || len(sum.Quarantined) > 0 || sum.Sessions != 24 {
			b.Fatalf("run: %v, summary %+v", err, sum)
		}
	}
}

// notepadTrace records the extraction benchmark's input: 500 keystrokes
// typed into Notepad on NT 4.0 under Microsoft Test, about a minute of
// simulated time. It returns the idle-loop samples, the message-API
// log and the Notepad thread id.
func notepadTrace() ([]trace.IdleSample, []trace.MsgRecord, int) {
	sys := system.New(system.Config{Persona: persona.NT40()})
	defer sys.Shutdown()
	probe := core.AttachProbe(sys.K)
	idle := core.StartIdleLoop(sys.K)
	idle.Record()
	n := apps.NewNotepad(sys)
	script := &input.Script{
		Events:    input.TypeText(simtime.Time(300*simtime.Millisecond), input.SampleText(500), 120*simtime.Millisecond),
		QueueSync: true,
	}
	script.Install(sys)
	sys.K.Run(script.End().Add(simtime.Second))
	return idle.Samples(), probe.Msgs, n.Thread().ID()
}

// BenchmarkExtraction reports the analysis-side cost: extracting events
// from a large pre-recorded trace.
func BenchmarkExtraction(b *testing.B) {
	samples, msgs, tid := notepadTrace()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := core.Extract(samples, msgs, core.ExtractOptions{Thread: tid, StripQueueSync: true})
		if len(events) != 500 {
			b.Fatalf("events = %d", len(events))
		}
	}
}

func BenchmarkExtBatching(b *testing.B) {
	r := runExperimentExt(b, "ext-batching").(*experiments.ExtBatchingResult)
	b.ReportMetric(r.Paced.Mean, "paced-ms")
	b.ReportMetric(r.Saturated.Mean, "saturated-ms")
	b.ReportMetric(r.SaturatedRate, "saturated-events-per-s")
}

func BenchmarkExtThinkWait(b *testing.B) {
	r := runExperimentExt(b, "ext-thinkwait").(*experiments.ExtThinkWaitResult)
	for _, s := range r.Systems {
		if s.Persona == "Windows 95" {
			b.ReportMetric(100*s.WaitShare, "w95-wait-pct")
		}
	}
}

func BenchmarkExtMetric(b *testing.B) {
	r := runExperimentExt(b, "ext-metric").(*experiments.ExtMetricResult)
	b.ReportMetric(r.Systems[0].Values[0], "nt351-irritation-50ms-s")
}

func BenchmarkExtSlowCPU(b *testing.B) {
	r := runExperimentExt(b, "ext-slowcpu").(*experiments.ExtSlowCPUResult)
	b.ReportMetric(r.Rows[len(r.Rows)-1].Refresh.Mean, "20mhz-refresh-ms")
}

func BenchmarkExtInterrupts(b *testing.B) {
	r := runExperimentExt(b, "ext-interrupts").(*experiments.ExtInterruptsResult)
	for _, row := range r.Systems {
		if row.Persona == "Windows NT 4.0" {
			b.ReportMetric(row.Cycles["keyboard"], "nt40-kbd-cycles")
		}
	}
}

// runExperimentExt mirrors runExperiment for the extension artifacts.
func runExperimentExt(b *testing.B, id string) experiments.Result {
	return runExperiment(b, id)
}
