package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/viz"
)

// Fig3Persona is one system's idle profile.
type Fig3Persona struct {
	Persona string
	Profile []core.ProfilePoint
	// MeanUtil is average idle-time CPU utilization.
	MeanUtil float64
	// ClockBursts is the number of distinct utilization bursts observed.
	ClockBursts int
	// ClockOverheadCycles is the measured per-clock-interrupt overhead,
	// obtained by coupling the idle loop with the hardware counters
	// (paper §2.5: ≈400 cycles on NT 4.0).
	ClockOverheadCycles float64
}

// Fig3Result is the idle-system comparison of paper Fig. 3.
type Fig3Result struct {
	Systems []Fig3Persona
}

// Render implements Result.
func (r *Fig3Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 3 — Idle-system profiles\n\n")
	for _, s := range r.Systems {
		if err := viz.Profile(w, fmt.Sprintf("%s (mean util %.3f%%, clock interrupt ≈%.0f cycles)",
			s.Persona, 100*s.MeanUtil, s.ClockOverheadCycles), s.Profile, 100, 8); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *Fig3Result) Artifacts() []Artifact {
	var out []Artifact
	for _, s := range r.Systems {
		out = append(out, ProfileArtifact(s.Persona, s.Profile))
	}
	return out
}

func runFig3(ctx context.Context, cfg Config) (Result, error) {
	seconds := 2
	if cfg.Quick {
		seconds = 1
	}
	res := &Fig3Result{}
	for _, p := range persona.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := newRig(cfg, p)
		r.il.Record() // the profile plots every sample
		intrBefore := r.sys.K.CPU().Count(cpu.Interrupts)
		stolenBefore := stolenTotal(r)
		r.sys.K.Run(simtime.Time(simtime.Duration(seconds) * simtime.Second))
		samples := r.il.Samples()
		profile := core.Profile(samples)

		// Clock-overhead estimate: total stolen time divided by the
		// interrupts taken (valid on the NTs, where nothing else runs;
		// on W95 background activity inflates it, which the paper's
		// Fig. 3 discussion also observes).
		intr := r.sys.K.CPU().Count(cpu.Interrupts) - intrBefore
		stolen := stolenTotal(r) - stolenBefore
		perIntr := 0.0
		if intr > 0 {
			perIntr = float64(r.sys.K.CPU().Freq.CyclesIn(stolen)) / float64(intr)
		}

		// Clock bursts steal only ≈4 µs per sample, so count elongations
		// above a 2 µs floor rather than the general busy threshold.
		bursts := 0
		for _, s := range samples {
			if s.Stolen(core.NominalSample) > 2*simtime.Microsecond {
				bursts++
			}
		}
		res.Systems = append(res.Systems, Fig3Persona{
			Persona:             p.Name,
			Profile:             profile,
			MeanUtil:            core.MeanUtil(profile),
			ClockBursts:         bursts,
			ClockOverheadCycles: perIntr,
		})
		r.shutdown()
	}
	return res, nil
}

func stolenTotal(r *rig) simtime.Duration {
	var t simtime.Duration
	for _, s := range r.il.Samples() {
		t += s.Stolen(core.NominalSample)
	}
	return t
}

func init() {
	Register(Spec{
		ID:    "fig3",
		Title: "Idle-system profiles for the three operating systems",
		Paper: "Fig. 3, §2.5",
		Run:   runFig3,
	})
}
