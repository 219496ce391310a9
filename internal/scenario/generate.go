package scenario

import (
	"fmt"

	"latlab/internal/faults"
	"latlab/internal/input"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/rng"
)

// Constraints bounds the generative fuzzer's search space. The zero
// value means the full space at corpus-friendly sizes: every workload
// kind, persona, and machine, sessions small enough that a corpus
// replay stays fast.
type Constraints struct {
	// Kinds restricts the workload kinds drawn from; empty means all.
	Kinds []string
	// Personas restricts the persona short names; empty means all.
	Personas []string
	// Machines restricts the machine short names; empty means every
	// profile plus "" (inherit the run's -machine).
	Machines []string
	// MaxFaults caps the fault kinds per scenario (default 3; windows
	// count toward it too).
	MaxFaults int
	// MaxChars caps typed characters per typing scenario (default 120).
	MaxChars int
	// MaxViews caps browsed views per browse scenario (default 10).
	MaxViews int
	// MaxStanzas caps explicit input stanzas (default 3).
	MaxStanzas int
}

// withDefaults resolves the zero value to the full search space.
func (c Constraints) withDefaults() Constraints {
	if len(c.Kinds) == 0 {
		c.Kinds = WorkloadKinds()
	}
	if len(c.Personas) == 0 {
		c.Personas = persona.Shorts()
	}
	if len(c.Machines) == 0 {
		c.Machines = append([]string{""}, machine.Shorts()...)
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 3
	}
	if c.MaxChars <= 0 {
		c.MaxChars = 120
	}
	if c.MaxViews <= 0 {
		c.MaxViews = 10
	}
	if c.MaxStanzas <= 0 {
		c.MaxStanzas = 3
	}
	return c
}

// Generate derives one scenario document from seed alone, inside c's
// bounds. The same (seed, c) always yields the same document, and the
// document pins its own Seed, so a cliff the fuzzer finds reproduces
// bit-for-bit from the committed file whatever the replaying run's
// -seed is. Generated documents always validate.
//
// The generator is biased toward the two cliff families the DSL can
// express: interarrival storms (keydown bursts at millisecond pitch
// riding on a human-paced timeline) and fault/phase alignments
// (explicit fault windows placed over the storm, or derived windows
// spanning the session). Quick is left nil — generated workloads are
// already corpus-sized, so -quick and full runs are identical, and the
// corpus goldens hold in both modes.
func Generate(seed uint64, c Constraints) Doc {
	c = c.withDefaults()
	r := rng.New(seed ^ 0x7363656e_67656e31) // "scengen1"
	d := Doc{
		Schema:  SchemaVersion,
		ID:      fmt.Sprintf("fz-%016x", seed),
		Title:   fmt.Sprintf("fuzzed scenario (seed %d)", seed),
		Paper:   "scenario fuzzer (generative extension)",
		Persona: c.Personas[r.Intn(len(c.Personas))],
		Machine: c.Machines[r.Intn(len(c.Machines))],
		Seed:    seed,
	}
	kind := c.Kinds[r.Intn(len(c.Kinds))]
	var sessionS float64
	switch kind {
	case KindTyping:
		sessionS = d.genTyping(r, c)
	case KindPowerpoint:
		sessionS = d.genPowerpoint(r)
	case KindBrowse:
		sessionS = d.genBrowse(r, c)
	}
	d.genFaults(r, c, sessionS)
	return d
}

// genTyping sizes a typing workload and, usually, an explicit input
// timeline mixing human-paced prose with interarrival storms.
func (d *Doc) genTyping(r *rng.Source, c Constraints) float64 {
	chars := 30 + r.Intn(c.MaxChars-29)
	wpm := 40 + 80*r.Float64()
	d.Workload = Workload{Kind: KindTyping, Full: Params{
		Chars: chars, WPM: round2(wpm), TrailingS: 3,
	}}
	// Rough session span: typist pace plus pauses, ~1.3x the raw pace.
	sessionS := float64(chars) * (60 / (wpm * 5)) * 1.3
	if r.Float64() < 0.75 {
		sessionS = d.genStanzas(r, c, sessionS)
	}
	return sessionS + 3
}

// genStanzas lays an explicit timeline: a typist bed plus keydown
// storms (the interarrival-storm cliff family) and occasional clicks —
// mouse input is where Windows 95's busy-wait lives.
func (d *Doc) genStanzas(r *rng.Source, c Constraints, sessionS float64) float64 {
	n := 1 + r.Intn(c.MaxStanzas)
	end := 300.0
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			st := Stanza{Type: "typist", AtMs: round2(end),
				Chars: 20 + r.Intn(60), WPM: round2(40 + 80*r.Float64())}
			d.Input = append(d.Input, st)
			end += float64(st.Chars) * (60000 / (st.WPM * 5)) * 1.3
		case 1:
			st := Stanza{Type: "keydowns", AtMs: round2(end), VK: input.VKPageDown,
				Count: 10 + r.Intn(50), PerKeyMs: round2(1 + 29*r.Float64())}
			d.Input = append(d.Input, st)
			end += float64(st.Count) * st.PerKeyMs
		default:
			st := Stanza{Type: "click", AtMs: round2(end),
				HoldMs: round2(30 + 400*r.Float64())}
			d.Input = append(d.Input, st)
			end += st.HoldMs
		}
		end += 200 + 1500*r.Float64()
	}
	return end / 1000
}

// genPowerpoint sizes a small completion-paced PowerPoint task.
func (d *Doc) genPowerpoint(r *rng.Source) float64 {
	edits := 1 + r.Intn(2)
	downs := make([]int, edits)
	for i := range downs {
		downs[i] = 1 + r.Intn(3)
	}
	objects := make([]int, edits)
	for i := range objects {
		objects[i] = 2 + 3*i + r.Intn(2)
	}
	d.Workload = Workload{Kind: KindPowerpoint, Full: Params{
		Slides: 10 + r.Intn(5), ObjectSlides: objects, PageDowns: downs,
		DeadlineS: 380,
	}}
	// Launch/open dominate; each edit adds a few seconds.
	return 20 + 8*float64(edits)
}

// genBrowse sizes a two-pass browsing session.
func (d *Doc) genBrowse(r *rng.Source, c Constraints) float64 {
	views := 4 + r.Intn(c.MaxViews-3)
	d.Workload = Workload{Kind: KindBrowse, Full: Params{Views: views, DeadlineS: 110}}
	return float64(2*views) * 0.8
}

// genFaults schedules the fault plan: sometimes none (a clean cliff is
// interesting too), sometimes derived kinds over the session, and
// sometimes explicit windows pinned over the middle of the session —
// the phase-alignment family.
func (d *Doc) genFaults(r *rng.Source, c Constraints, sessionS float64) {
	names := faults.KindNames()
	n := r.Intn(c.MaxFaults + 1)
	if n == 0 {
		return
	}
	picked := make([]string, 0, n)
	for _, i := range r.Perm(len(names))[:n] {
		picked = append(picked, names[i])
	}
	if r.Float64() < 0.5 {
		d.Faults = &FaultSpec{Kinds: picked, SpanS: round2(sessionS)}
		return
	}
	spec := &FaultSpec{}
	for _, name := range picked {
		start := sessionS * 1000 * (0.1 + 0.5*r.Float64())
		dur := sessionS * 1000 * (0.1 + 0.4*r.Float64())
		spec.Windows = append(spec.Windows, Window{
			Kind: name, StartMs: round2(start), DurationMs: round2(dur),
			Magnitude: round2(windowMagnitude(name, r)),
		})
	}
	d.Faults = spec
}

// windowMagnitude draws a kind-appropriate severity, mirroring the
// ranges faults.Generate uses for derived plans.
func windowMagnitude(kind string, r *rng.Source) float64 {
	switch kind {
	case "disk-degrade":
		return 3 + 5*r.Float64()
	case "disk-media-errors":
		return 0.5 + 0.4*r.Float64()
	case "irq-storm":
		return 2000 + 3000*r.Float64()
	case "timer-jitter":
		return 2 + 6*r.Float64()
	case "cache-pressure":
		return float64(64 + r.Intn(192))
	default:
		return 0
	}
}

// round2 keeps generated values to two decimals so documents stay
// readable and JSON round-trips exactly.
func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
