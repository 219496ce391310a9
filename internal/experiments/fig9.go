package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// counterKinds are the hardware events Figs. 9-10 report.
var counterKinds = []cpu.EventKind{
	cpu.Instructions, cpu.DataRefs,
	cpu.ITLBMisses, cpu.DTLBMisses,
	cpu.SegmentLoads, cpu.UnalignedAccesses,
}

// CounterResult holds a counter comparison across the three systems for
// one operation (the shape of Figs. 9 and 10).
type CounterResult struct {
	Title     string
	Operation string
	Systems   []core.CounterMeasurement
	// TLBExtra351 and TLBFraction351 quantify the paper's attribution:
	// extra NT 3.51 TLB misses over NT 4.0, and their share of the
	// latency difference at 20 cycles/miss (≥25% for page down, ≥23%
	// for the OLE edit).
	TLBExtra351    int64
	TLBFraction351 float64
	// W95TLBRatio is W95 TLB misses over NT 4.0's (paper: 1.93x).
	W95TLBRatio float64
}

// Render implements Result.
func (r *CounterResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s\n\n", r.Title)
	if err := viz.CounterBars(w, "  "+r.Operation, r.Systems, counterKinds, 36); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  NT 3.51 extra TLB misses vs NT 4.0: %d (at 20 cyc/miss: %.0f%% of the latency difference)\n",
		r.TLBExtra351, 100*r.TLBFraction351)
	fmt.Fprintf(w, "  W95 / NT 4.0 TLB-miss ratio: %.2fx\n", r.W95TLBRatio)
	return nil
}

// measureOp runs op-measurement over all three personas using a
// prepared rig per persona.
func measureOp(ctx context.Context, title, operation string, cfg Config, warmups int,
	prepare func(r *rig) (runOnce func())) (*CounterResult, error) {
	res := &CounterResult{Title: title, Operation: operation}
	byShort := map[string]core.CounterMeasurement{}
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := newRig(cfg, p, 400)
		runOnce := prepare(r)
		for i := 0; i < warmups; i++ {
			runOnce() // warm caches, as the paper's repeated trials are
		}
		m := core.MeasureCounters(r.sys.K, p.Short, counterKinds, runOnce)
		byShort[p.Short] = m
		res.Systems = append(res.Systems, m)
		r.shutdown()
	}
	res.TLBExtra351, res.TLBFraction351 =
		core.TLBAttribution(byShort["nt351"], byShort["nt40"], 20)
	tlb := func(m core.CounterMeasurement) float64 {
		return float64(m.Events[cpu.ITLBMisses] + m.Events[cpu.DTLBMisses])
	}
	if base := tlb(byShort["nt40"]); base > 0 {
		res.W95TLBRatio = tlb(byShort["w95"]) / base
	}
	return res, nil
}

// pptWarmRig launches and opens PowerPoint on r with a 40-slide deck —
// every slide after the first carrying an embedded graph when
// objectEverySlide is set, so that repeated page-downs land on OLE
// pages (the Fig. 9 microbenchmark) — and leaves the machine up, warm.
func pptWarmRig(r *rig, objectEverySlide bool) {
	params := apps.DefaultPowerpointParams()
	params.Slides = 40
	if objectEverySlide {
		params.ObjectSlides = nil
		for s := 2; s <= 40; s++ {
			params.ObjectSlides = append(params.ObjectSlides, s)
		}
	}
	ppt := apps.NewPowerpoint(r.sys, params)
	steps := []chainStep{
		step(kernel.WMCommand, apps.CmdLaunch, 200*simtime.Millisecond),
		step(kernel.WMCommand, apps.CmdOpen, 200*simtime.Millisecond),
	}
	openChain("", r, ppt.Thread(), steps, false, simtime.Time(120*simtime.Second)).drive()
}

// quiesce runs the kernel until the focused app goes idle. It always
// advances time first (pending injections haven't fired yet) and polls
// finely so counter measurements bracket the operation tightly.
func quiesce(r *rig) {
	for i := 0; i < 2_000_000; i++ {
		r.sys.K.RunFor(200 * simtime.Microsecond)
		f := r.sys.Focus()
		if f.State() == kernel.StateBlockedMsg && f.QueueLen() == 0 &&
			r.sys.K.SyncIOOutstanding() == 0 {
			return
		}
	}
	panic("experiments: application never quiesced")
}

func runFig9(ctx context.Context, cfg Config) (Result, error) {
	return liftCounters(measureOp(ctx,
		"Fig. 9 — Counter measurements for the Powerpoint page-down operation",
		"page down to a page containing an OLE embedded graph (warm)",
		cfg, 1,
		func(r *rig) func() {
			pptWarmRig(r, true)
			return func() {
				r.sys.K.At(r.sys.K.Now()+1, func(simtime.Time) {
					r.sys.Inject(kernel.WMKeyDown, input.VKPageDown, false)
				})
				quiesce(r)
			}
		}))
}

func runFig10(ctx context.Context, cfg Config) (Result, error) {
	// Three warm-up sessions walk the server's per-session extra-page
	// schedule so the buffer cache is genuinely hot (paper §5.3).
	return liftCounters(measureOp(ctx,
		"Fig. 10 — Counter measurements for the OLE edit start-up (hot buffer cache)",
		"start OLE edit session, hot cache",
		cfg, 3,
		func(r *rig) func() {
			pptWarmRig(r, false)
			return func() {
				r.sys.K.At(r.sys.K.Now()+1, func(simtime.Time) {
					r.sys.Inject(kernel.WMCommand, apps.CmdEditObject+0, false)
				})
				quiesce(r)
				r.sys.K.At(r.sys.K.Now()+1, func(simtime.Time) {
					r.sys.Inject(kernel.WMCommand, apps.CmdEndEdit, false)
				})
				quiesce(r)
			}
		}))
}

// liftCounters adapts measureOp's concrete result to the Spec.Run shape.
func liftCounters(r *CounterResult, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

func init() {
	Register(Spec{ID: "fig9", Title: "Counter measurements: Powerpoint page down",
		Paper: "Fig. 9, §5.3", Run: runFig9})
	Register(Spec{ID: "fig10", Title: "Counter measurements: OLE edit start-up",
		Paper: "Fig. 10, §5.3", Run: runFig10})
}
