// The ext-modern experiment family reruns the paper's 1996 methodology
// on the 2026 machine profiles: multi-core with background work pushed
// off the scheduler core, SMT, DVFS under the idle-loop instrument,
// NVMe-class storage, and interrupt coalescing. Each experiment is one
// "what still holds / what inverted" claim of the EXPERIMENTS.md modern
// chapter, run as a counterfactual pair against the pinned baseline
// m2026-pin so exactly the axis under test moves. Latencies are also
// classified into perceptual classes (internal/perception): on 2026
// hardware most of the paper's workloads live deep inside the
// imperceptible budget, and the interesting question becomes which
// mechanisms can still push an event out of it.
//
// Note the simulator's clock ceiling: simtime requires an integral-ns
// CPU period, so the modern profiles model a 2026 core as 1 GHz with
// modern per-cycle memory costs rather than a literal 4-5 GHz part.
// Ratios between profiles are meaningful; absolute 2026 latencies are
// conservative by the remaining clock factor.
package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/fscache"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/perception"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// ModernCell is one machine's measurement in an ext-modern pair: warm
// per-event latency, its perceptual-class breakdown, and the accounting
// views the modern axes pull apart — what the 1996 idle-loop
// methodology reports as busy versus what the kernel knows ran on the
// scheduler core versus what ran on auxiliary cores it never sees.
type ModernCell struct {
	Machine string
	Era     string
	// Events is the number of warm events summarized (cold first event
	// dropped, as everywhere else in the suite).
	Events  int
	Latency stats.Summary
	// Classes is the warm events' perceptual-class breakdown under the
	// default calibration.
	Classes perception.Breakdown
	// ReportedBusy is the busy time the idle-loop instrument reports
	// (stolen time against its calibrated 1 ms sample); KernelBusy is the
	// scheduler core's ground truth; AuxBusy ran on cores the instrument
	// cannot see at all.
	ReportedBusy simtime.Duration
	KernelBusy   simtime.Duration
	AuxBusy      simtime.Duration
	// AuxMigrations counts cross-core steals of pinned background work.
	AuxMigrations int64
	// OtherInterrupts is the non-clock interrupt count for the whole run
	// (keyboard + disk): the clock's metronome is identical across a
	// pair, so the pair's delta is the disk-interrupt delta.
	OtherInterrupts int64
}

// modernRun boots persona p on prof, injects keystrokes every gapMs
// (starting at 500 ms), letting body handle each one, and returns the
// finished cell. tailMs of quiet time at the end lets the last event
// complete and the DVFS governor decay.
func modernRun(cfg Config, p persona.P, prof machine.Profile, keystrokes int, gapMs, tailMs int64,
	body func(r *rig, tc *kernel.TC)) ModernCell {
	w := keyWorkload{app: "modern", code: []uint64{420, 421}, keystrokes: keystrokes, gapMs: gapMs, tailMs: tailMs,
		samples: true}
	return paceKeys(cfg, p, prof, w, body, modernCell)
}

// modernCell reduces a finished ext-modern run to its cell.
func modernCell(k *keyRun) ModernCell {
	r := k.r
	cell := ModernCell{Machine: r.sys.M.Short, Era: r.sys.M.Era}
	events := r.extract(k.app, false)
	if len(events) >= 2 {
		model := perception.Default()
		var warm []float64
		for _, ev := range events[1:] {
			ms := ev.Latency.Milliseconds()
			warm = append(warm, ms)
			cell.Classes.Add(model.ClassifyKind(ev.Kind, ms))
		}
		cell.Events = len(warm)
		cell.Latency = stats.Summarize(warm)
	}
	for _, s := range r.il.Samples() {
		cell.ReportedBusy += s.Stolen(core.NominalSample)
	}
	cell.KernelBusy = r.sys.K.NonIdleBusyTime()
	cell.AuxBusy = r.sys.K.AuxBusyTime()
	cell.AuxMigrations = r.sys.K.AuxMigrations()
	cell.OtherInterrupts = k.delta(cpu.Interrupts) - k.ticks
	return cell
}

// classShare renders the cell's imperceptible share as a table field.
func classShare(c ModernCell) string {
	return fmt.Sprintf("%.0f%%", 100*c.Classes.Share(perception.Imperceptible))
}

// meanClass names the perceptual class of the cell's warm mean, read as
// a typing event.
func meanClass(c ModernCell) string {
	return perception.Default().Classify(perception.Typing, c.Latency.Mean).String()
}

// ---------------------------------------------------------------- clock

// ExtModernClockResult sweeps the streaming-redraw keystroke of
// ext-hw-clock across three decades of machine: the section 5.1
// argument, extended until it inverts.
type ExtModernClockResult struct {
	Cells []ModernCell
}

// Render implements Result.
func (r *ExtModernClockResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modern (§5.1) — the 1996 streaming redraw across three decades of hardware\n\n")
	fmt.Fprintf(w, "  %-12s %-6s %10s %9s %10s %s\n", "machine", "era", "warm mean", "speedup", "impercep.", "class of mean")
	base := r.Cells[0]
	for _, c := range r.Cells {
		speed := 0.0
		if c.Latency.Mean > 0 {
			speed = base.Latency.Mean / c.Latency.Mean
		}
		fmt.Fprintf(w, "  %-12s %-6s %8.2fms %8.2fx %10s %s\n",
			c.Machine, c.Era, c.Latency.Mean, speed, classShare(c), meanClass(c))
	}
	fmt.Fprintf(w, "\n  In 1996 this redraw streamed a window twice the L2 and was memory-\n")
	fmt.Fprintf(w, "  bound: doubling the clock bought well under 2x (ext-hw-clock). The\n")
	fmt.Fprintf(w, "  2026 part's 8 MB L2 holds the entire 1996 working set, so the same\n")
	fmt.Fprintf(w, "  workload collapses by far more than its clock ratio — the memory\n")
	fmt.Fprintf(w, "  wall the paper pointed at moved, it did not fall. Every cell sits\n")
	fmt.Fprintf(w, "  deep inside the 100 ms typing budget: clock rate stopped being the\n")
	fmt.Fprintf(w, "  reason an interactive event feels slow. (1 GHz simulator cap: the\n")
	fmt.Fprintf(w, "  2026 ratios are conservative.)\n")
	return nil
}

func runExtModernClock(ctx context.Context, cfg Config) (Result, error) {
	res := &ExtModernClockResult{}
	for _, prof := range []machine.Profile{machine.Pentium100(), machine.Pentium200(), machine.Modern2026Pinned()} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := 0
		render := cpu.Segment{
			Name: "modern-render", BaseCycles: 100_000,
			Instructions: 60_000, DataRefs: 30_000,
			CodePages: []uint64{420, 421}, DataPages: []uint64{422, 423},
		}
		cell := modernRun(cfg, persona.NT40(), prof, pacedKeystrokes(cfg), 200, 2000,
			func(r *rig, tc *kernel.TC) {
				r.sys.Win.TextOut(tc, 1)
				seg := render
				seg.CacheChunks = make([]uint64, 4000)
				for i := range seg.CacheChunks {
					seg.CacheChunks[i] = 100_000 + uint64((pos+i)%16384)
				}
				pos = (pos + 4000) % 16384
				tc.Compute(seg)
			})
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// ----------------------------------------------------------------- dvfs

// ExtModernDVFSResult is the governor-versus-pinned pair: the same
// bursty keystroke session on m2026 (DVFS governor) and m2026-pin
// (pinned at base clock). Two distortions of the 1996 methodology fall
// out: post-idle events run at the parked clock until the governor
// ramps, and the idle-loop instrument — calibrated at base frequency —
// mistakes slowed idle iterations for stolen time.
type ExtModernDVFSResult struct {
	Cells []ModernCell
}

// Render implements Result.
func (r *ExtModernDVFSResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modern (§3) — DVFS governor vs pinned clock under the idle-loop instrument\n\n")
	fmt.Fprintf(w, "  %-12s %10s %10s %14s %13s %10s\n",
		"machine", "warm mean", "warm max", "reported busy", "kernel busy", "inflation")
	for _, c := range r.Cells {
		infl := 0.0
		if c.KernelBusy > 0 {
			infl = float64(c.ReportedBusy) / float64(c.KernelBusy)
		}
		fmt.Fprintf(w, "  %-12s %8.2fms %8.2fms %12.1fms %11.1fms %9.2fx\n",
			c.Machine, c.Latency.Mean, c.Latency.Max,
			c.ReportedBusy.Milliseconds(), c.KernelBusy.Milliseconds(), infl)
	}
	fmt.Fprintf(w, "\n  Latency: each keystroke lands on a parked 250 MHz core and pays up\n")
	fmt.Fprintf(w, "  to 4x its compute until the governor ramps — the tail, not the mean,\n")
	fmt.Fprintf(w, "  absorbs the penalty, exactly the shape the paper says users feel.\n")
	fmt.Fprintf(w, "  Methodology: the idle loop calibrates its 1 ms sample at base clock;\n")
	fmt.Fprintf(w, "  at 250 MHz each iteration takes 4 ms of wall time, and the instrument\n")
	fmt.Fprintf(w, "  books the extra 3 ms as stolen. On m2026 the reported busy time is\n")
	fmt.Fprintf(w, "  pure fiction; the 1996 idle-loop methodology silently requires a\n")
	fmt.Fprintf(w, "  fixed clock (or an invariant-rate timing source for the samples).\n")
	return nil
}

func runExtModernDVFS(ctx context.Context, cfg Config) (Result, error) {
	res := &ExtModernDVFSResult{}
	burst := cpu.Segment{
		Name: "modern-burst", BaseCycles: 4_000_000,
		Instructions: 2_400_000, DataRefs: 900_000,
		CodePages: []uint64{420, 421}, DataPages: []uint64{424, 425},
	}
	for _, prof := range []machine.Profile{machine.Modern2026(), machine.Modern2026Pinned()} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell := modernRun(cfg, persona.NT40(), prof, pacedKeystrokes(cfg), 200, 2000,
			func(r *rig, tc *kernel.TC) {
				r.sys.Win.TextOut(tc, 1)
				tc.Compute(burst)
			})
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// ----------------------------------------------------------------- nvme

// ExtModernNVMeResult is the storage pair: a read-heavy keystroke on
// the 1996 disk geometry (m2026-hdd) versus NVMe-class storage
// (m2026-pin), everything else modern.
type ExtModernNVMeResult struct {
	Cells []ModernCell
}

// Render implements Result.
func (r *ExtModernNVMeResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modern (§4) — the 1996 disk vs NVMe-class storage, read-heavy keystrokes\n\n")
	fmt.Fprintf(w, "  %-12s %10s %10s %10s %s\n", "machine", "warm mean", "warm max", "impercep.", "class of mean")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-12s %8.2fms %8.2fms %10s %s\n",
			c.Machine, c.Latency.Mean, c.Latency.Max, classShare(c), meanClass(c))
	}
	hdd, nvme := r.Cells[0], r.Cells[1]
	if nvme.Latency.Mean > 0 {
		fmt.Fprintf(w, "\n  delta: %.2fms per keystroke (%.0fx)\n",
			hdd.Latency.Mean-nvme.Latency.Mean, hdd.Latency.Mean/nvme.Latency.Mean)
	}
	fmt.Fprintf(w, "\n  On the 1996 geometry every scattered read pays a seek plus half a\n")
	fmt.Fprintf(w, "  rotation, and a disk-touching keystroke blows the perception budget\n")
	fmt.Fprintf(w, "  — the paper's warm/cold split (§4) exists because storage dominated\n")
	fmt.Fprintf(w, "  cold events. NVMe deletes the mechanical terms: the same reads cost\n")
	fmt.Fprintf(w, "  microseconds, the event never leaves the imperceptible class, and\n")
	fmt.Fprintf(w, "  \"cold\" stops being a perceptual category at all. This is the\n")
	fmt.Fprintf(w, "  cleanest inversion in the chapter.\n")
	return nil
}

func runExtModernNVMe(ctx context.Context, cfg Config) (Result, error) {
	res := &ExtModernNVMeResult{}
	keystrokes := pacedKeystrokes(cfg)
	const readsPerEvent, pagesPerRead = 10, 8
	think := cpu.Segment{
		Name: "modern-parse", BaseCycles: 200_000,
		Instructions: 120_000, DataRefs: 50_000,
		CodePages: []uint64{420, 421}, DataPages: []uint64{426},
	}
	for _, prof := range []machine.Profile{machine.Modern2026HDD(), machine.Modern2026Pinned()} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var db fscache.FileID
		var off int64
		opened := false
		cell := modernRun(cfg, persona.NT40(), prof, keystrokes, 400, 2000,
			func(r *rig, tc *kernel.TC) {
				if !opened {
					db = r.sys.K.Cache().AddFile("archive.db", 700_000,
						int64(keystrokes*readsPerEvent*pagesPerRead)+pagesPerRead)
					opened = true
				}
				for i := 0; i < readsPerEvent; i++ {
					// Advance through the file so every read misses the cache;
					// the stride scatters the blocks across cylinders.
					tc.ReadFile(db, off, pagesPerRead)
					off += pagesPerRead
					tc.Compute(think)
				}
			})
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// ------------------------------------------------------------------ irq

// ExtModernIRQResult is the interrupt-coalescing pair: a keystroke that
// fans out concurrent asynchronous reads and polls for the completions,
// on per-request interrupts (m2026-noirq) versus a 200 µs / 8-batch
// coalescer (m2026-pin) — the only axis the two profiles differ on.
type ExtModernIRQResult struct {
	Cells []ModernCell
}

// Render implements Result.
func (r *ExtModernIRQResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modern (§2.5) — interrupt coalescing vs per-request completion interrupts\n\n")
	fmt.Fprintf(w, "  %-12s %10s %10s %16s\n", "machine", "warm mean", "warm max", "disk+kbd irqs")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-12s %8.2fms %8.2fms %16d\n",
			c.Machine, c.Latency.Mean, c.Latency.Max, c.OtherInterrupts)
	}
	perReq, coal := r.Cells[0], r.Cells[1]
	fmt.Fprintf(w, "\n  coalescing removed %d interrupts and cost %+.2fms of mean latency\n",
		perReq.OtherInterrupts-coal.OtherInterrupts, coal.Latency.Mean-perReq.Latency.Mean)
	fmt.Fprintf(w, "\n  The paper priced every interrupt's overhead (§2.5) on the machine\n")
	fmt.Fprintf(w, "  that took one per event. A 2026 NVMe queue takes one per *batch*:\n")
	fmt.Fprintf(w, "  the coalescer trades up to its 200 µs window of added completion\n")
	fmt.Fprintf(w, "  latency for an interrupt count cut by the batch factor. Both sides\n")
	fmt.Fprintf(w, "  of the trade live far inside the perception budget — coalescing is\n")
	fmt.Fprintf(w, "  free at human timescales, which is why modern controllers default\n")
	fmt.Fprintf(w, "  to it and a 1996-style per-event interrupt audit now measures the\n")
	fmt.Fprintf(w, "  controller's batching policy, not the workload.\n")
	return nil
}

func runExtModernIRQ(ctx context.Context, cfg Config) (Result, error) {
	res := &ExtModernIRQResult{}
	keystrokes := pacedKeystrokes(cfg)
	// fanout stays under the coalescer's MaxBatch (8) so the final
	// partial batch must wait out the full 200 µs window — the worst
	// case for the latency side of the trade.
	const fanout, pagesPerRead = 6, 4
	poll := cpu.Segment{
		Name: "modern-poll", BaseCycles: 5000,
		Instructions: 3000, DataRefs: 1000,
		CodePages: []uint64{420, 421}, DataPages: []uint64{427},
	}
	for _, prof := range []machine.Profile{machine.Modern2026NoCoalesce(), machine.Modern2026Pinned()} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var db fscache.FileID
		var off int64
		opened := false
		cell := modernRun(cfg, persona.NT40(), prof, keystrokes, 250, 2000,
			func(r *rig, tc *kernel.TC) {
				if !opened {
					db = r.sys.K.Cache().AddFile("queue.db", 760_000,
						int64(keystrokes*fanout*pagesPerRead)+pagesPerRead)
					opened = true
				}
				for i := 0; i < fanout; i++ {
					tc.ReadFileAsync(db, off, pagesPerRead, kernel.WMIdleWork, int64(i))
					off += pagesPerRead
				}
				// Busy-poll for the completions so the episode stays unbroken
				// and its latency includes the coalescer's holding window.
				for done := 0; done < fanout; {
					if m, ok := tc.PeekMessage(); ok {
						if m.Kind == kernel.WMIdleWork {
							done++
						}
						continue
					}
					tc.Compute(poll)
				}
			})
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// ------------------------------------------------------------------ smt

// ExtModernSMTResult is the topology pair: Windows 95 — the persona
// with real background housekeeping — on the eight-core part
// (m2026-pin, housekeeping pinned to the SMT sibling and spilling
// across aux cores) versus the same part cut to one core (m2026-uni,
// housekeeping back on the scheduler core, 1996-style).
type ExtModernSMTResult struct {
	Cells []ModernCell
}

// Render implements Result.
func (r *ExtModernSMTResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modern (§2.3) — background work on aux cores vs the scheduler core\n\n")
	fmt.Fprintf(w, "  %-12s %10s %14s %13s %10s %11s\n",
		"machine", "warm mean", "reported busy", "kernel busy", "aux busy", "migrations")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-12s %8.2fms %12.1fms %11.1fms %8.1fms %11d\n",
			c.Machine, c.Latency.Mean,
			c.ReportedBusy.Milliseconds(), c.KernelBusy.Milliseconds(),
			c.AuxBusy.Milliseconds(), c.AuxMigrations)
	}
	fmt.Fprintf(w, "\n  On one core the housekeeping contends with the keystroke path and\n")
	fmt.Fprintf(w, "  every burst lands in the idle loop's ledger. On eight cores the\n")
	fmt.Fprintf(w, "  same work runs on the SMT sibling (stretched by contention when the\n")
	fmt.Fprintf(w, "  scheduler core is busy) and the instrument — which watches only the\n")
	fmt.Fprintf(w, "  core it runs on — reports the machine idle while aux-busy time\n")
	fmt.Fprintf(w, "  accrues. The 1996 single-point methodology still measures foreground\n")
	fmt.Fprintf(w, "  latency correctly, but as a *utilization* probe it is now blind to\n")
	fmt.Fprintf(w, "  most of the machine: per-core instrumentation became mandatory.\n")
	return nil
}

func runExtModernSMT(ctx context.Context, cfg Config) (Result, error) {
	res := &ExtModernSMTResult{}
	echo := cpu.Segment{
		Name: "modern-echo", BaseCycles: 900_000,
		Instructions: 540_000, DataRefs: 200_000,
		CodePages: []uint64{420, 421}, DataPages: []uint64{428, 429},
	}
	for _, prof := range []machine.Profile{machine.Modern2026Pinned(), machine.Modern2026Uni()} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell := modernRun(cfg, persona.W95(), prof, pacedKeystrokes(cfg), 150, 1500,
			func(r *rig, tc *kernel.TC) {
				r.sys.Win.TextOut(tc, 1)
				tc.Compute(echo)
			})
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "ext-modern-clock", Title: "Three decades of hardware under the 1996 redraw",
		Paper: "§5.1 (modern)", Run: runExtModernClock})
	Register(Spec{ID: "ext-modern-dvfs", Title: "DVFS governor vs the idle-loop methodology",
		Paper: "§3 (modern)", Run: runExtModernDVFS})
	Register(Spec{ID: "ext-modern-nvme", Title: "NVMe-class storage vs the 1996 disk",
		Paper: "§4 (modern)", Run: runExtModernNVMe})
	Register(Spec{ID: "ext-modern-irq", Title: "Interrupt coalescing vs per-request interrupts",
		Paper: "§2.5 (modern)", Run: runExtModernIRQ})
	Register(Spec{ID: "ext-modern-smt", Title: "Aux-core background work and idle-loop blindness",
		Paper: "§2.3 (modern)", Run: runExtModernSMT})
}
