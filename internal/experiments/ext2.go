package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/input"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// ExtSlowCPUResult quantifies the paper's §5.1 remark: "Although these
// differences in latency are likely to go unnoticed by users of our test
// system, they might have a significant effect on user-perceived
// performance on a slower machine." It runs the same Notepad session on
// NT 4.0 at several clock rates and reports how screen-refresh
// keystrokes move relative to the 0.1 s perception threshold.
type ExtSlowCPUResult struct {
	Rows []ExtSlowCPURow
}

// ExtSlowCPURow is one clock rate's outcome.
type ExtSlowCPURow struct {
	MHz int
	// Char and Refresh summarize the two Notepad latency classes (ms).
	Char    stats.Summary
	Refresh stats.Summary
	// OverPerception counts events above the 0.1 s threshold.
	OverPerception int
}

// Render implements Result.
func (r *ExtSlowCPUResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§5.1) — the same Notepad session on slower machines (NT 4.0)\n\n")
	fmt.Fprintf(w, "  %8s %14s %16s %18s\n", "clock", "echo keystroke", "refresh keystroke", ">0.1s events")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %5dMHz %12.1fms %14.1fms %18d\n",
			row.MHz, row.Char.Mean, row.Refresh.Mean, row.OverPerception)
	}
	fmt.Fprintf(w, "\n  On the 100 MHz machine every event is imperceptible; at 20-25 MHz the\n")
	fmt.Fprintf(w, "  refresh keystrokes cross the perception threshold — the paper's point\n")
	fmt.Fprintf(w, "  that latency differences grow teeth on slower hardware.\n")
	return nil
}

func runExtSlowCPU(ctx context.Context, cfg Config) (Result, error) {
	chars := 150
	if cfg.Quick {
		chars = 60
	}
	res := &ExtSlowCPUResult{}
	for _, mhz := range []int{100, 50, 20} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := persona.NT40()
		// A down-clocked variant of the configured machine: same TLBs,
		// caches and disk, only the core runs slower (§5.1's thought
		// experiment isolates clock rate). A DVFS ladder would boot the
		// core at its own lowest level instead, so the variant runs at
		// the one fixed clock.
		prof := cfg.MachineProfile()
		prof.ClockHz = simtime.Hz(mhz) * 1_000_000
		prof.DVFS = machine.DVFSSpec{}

		// Fixed-pace session with newlines so both latency classes appear.
		raw := input.SampleText(chars)
		var text []rune
		for i, c := range raw {
			if i > 0 && i%40 == 0 {
				text = append(text, '\n')
			}
			text = append(text, c)
		}
		script := &input.Script{
			Events: input.TypeText(simtime.Time(300*simtime.Millisecond), string(text), 250*simtime.Millisecond),
		}
		r := newRigOn(cfg, p, prof)
		n := apps.NewNotepad(r.sys, 250_000)
		script.Install(r.sys)
		r.sys.K.Run(script.End().Add(2 * simtime.Second))

		events := r.extract(n.Thread(), false)
		var charMs, refreshMs []float64
		over := 0
		for _, e := range events {
			ms := e.Latency.Milliseconds()
			if ms > core.PerceptionThresholdMs {
				over++
			}
			// Classify by cost: refreshes are an order of magnitude
			// dearer than echo keystrokes at every clock rate.
			if ms >= 12*100/float64(mhz) {
				refreshMs = append(refreshMs, ms)
			} else {
				charMs = append(charMs, ms)
			}
		}
		res.Rows = append(res.Rows, ExtSlowCPURow{
			MHz:            mhz,
			Char:           stats.Summarize(charMs),
			Refresh:        stats.Summarize(refreshMs),
			OverPerception: over,
		})
		r.shutdown()
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "ext-slowcpu", Title: "Perception thresholds on slower machines",
		Paper: "§5.1 (extension)", Run: runExtSlowCPU})
}
