package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"latlab/internal/faults"
	"latlab/internal/input"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
)

// This file is the scenario compiler: FromScenario lowers a declarative
// scenario.Doc onto the same machinery the hand-written experiments
// use — system.New (via newRig), input.Script, faults.Generate,
// machine.ByShort — so a file-backed experiment and a Go-registered one
// share a single code path through the runner. The ext-faults-* specs
// are themselves registered from documents (see extfaults.go), and
// their JSON twins under testdata/scenarios/ are proven byte-identical
// by TestScenarioTwinsMatchGoRegistered.

// FromScenario compiles doc into a runnable Spec. The Spec's Run
// resolves the document against the run Config: a pinned doc.Seed or
// doc.Machine overrides the configured one, -quick selects the quick
// parameter set, and the fault plan is derived from the effective seed.
// The returned Spec carries the document in Spec.Scenario, so run
// manifests record the full declarative config.
func FromScenario(doc scenario.Doc) (Spec, error) {
	if err := doc.Validate(); err != nil {
		return Spec{}, err
	}
	d := doc
	return Spec{
		ID:       d.ID,
		Title:    d.Title,
		Paper:    d.Paper,
		Scenario: &d,
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			return runScenario(ctx, cfg, d)
		},
	}, nil
}

// scRun is one compiled workload invocation: everything a driver needs
// beyond the label and fault plan.
type scRun struct {
	p       persona.P
	prm     scenario.Params
	stanzas []scenario.Stanza
	seed    uint64
}

// runScenario executes doc under cfg. A single-run document is one
// session opened and driven exactly as a campaign cell drives each of
// its seeds; a compare document drives one session per row, the
// faulted rows under the document's fault plan.
func runScenario(ctx context.Context, cfg Config, doc scenario.Doc) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(doc.Compare) == 0 {
		s, err := OpenScenarioSession(cfg, doc)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		s.Drive()
		return s.Result(), nil
	}
	rs, err := resolveScenario(cfg, doc)
	if err != nil {
		return nil, err
	}
	res := &ExtFaultsResult{ID: doc.ID, Title: doc.BannerOrTitle(), Plan: rs.plan}
	for _, row := range doc.Compare {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowPlan := faults.Plan{}
		if row.Faulted {
			rowPlan = rs.plan
		}
		res.Rows = append(res.Rows, rs.runRow(row.Label, rowPlan))
	}
	return res, nil
}

// resolvedScenario is a document settled against a run Config: the
// effective config (the document's pinned seed and machine applied),
// the compiled workload, its session opener and its fault plan.
type resolvedScenario struct {
	cfg    Config
	sc     scRun
	opener func(string, Config, scRun, faults.Plan) *ScenarioSession
	plan   faults.Plan
}

// resolveScenario settles doc against cfg. Every way a document runs —
// a single session and each compare row — resolves through here.
func resolveScenario(cfg Config, doc scenario.Doc) (resolvedScenario, error) {
	if doc.Seed != 0 {
		cfg.Seed = doc.Seed
	}
	if doc.Machine != "" {
		prof, ok := machine.ByShort(doc.Machine)
		if !ok {
			return resolvedScenario{}, fmt.Errorf("scenario %s: unknown machine %q", doc.ID, doc.Machine)
		}
		cfg.Machine = prof
	}
	p, ok := persona.ByShort(doc.Persona)
	if !ok {
		return resolvedScenario{}, fmt.Errorf("scenario %s: unknown persona %q", doc.ID, doc.Persona)
	}
	opener, err := scenarioOpener(doc.Workload.Kind)
	if err != nil {
		return resolvedScenario{}, err
	}
	return resolvedScenario{
		cfg:    cfg,
		sc:     scRun{p: p, prm: doc.Workload.Resolve(cfg.Quick), stanzas: doc.Input, seed: cfg.Seed},
		opener: opener,
		plan:   scenarioPlan(doc, cfg),
	}, nil
}

// runRow drives one compare row's session alone and extracts its row.
func (rs resolvedScenario) runRow(label string, plan faults.Plan) ExtFaultsRow {
	s := rs.opener(label, rs.cfg, rs.sc, plan)
	defer s.Close()
	s.Drive()
	return s.row()
}

// scenarioOpener maps a workload kind to its session opener.
func scenarioOpener(kind string) (func(string, Config, scRun, faults.Plan) *ScenarioSession, error) {
	switch kind {
	case scenario.KindTyping:
		return openTyping, nil
	case scenario.KindPowerpoint:
		return openPPT, nil
	case scenario.KindBrowse:
		return openBrowser, nil
	default:
		return nil, fmt.Errorf("scenario: no driver for workload kind %q", kind)
	}
}

// scenarioPlan resolves the document's fault plan against the
// effective seed and mode: derived kinds go through faults.Generate
// (so a scenario plan equals the hand-written experiment's), explicit
// windows are sorted the same way Generate sorts.
func scenarioPlan(doc scenario.Doc, cfg Config) faults.Plan {
	fs := doc.Faults
	if fs == nil {
		return faults.Plan{}
	}
	if len(fs.Kinds) > 0 {
		span := fs.SpanS
		if cfg.Quick && fs.QuickSpanS > 0 {
			span = fs.QuickSpanS
		}
		kinds := make([]faults.Kind, 0, len(fs.Kinds))
		for _, name := range fs.Kinds {
			k, _ := faults.KindByName(name)
			kinds = append(kinds, k)
		}
		return faults.Generate(cfg.Seed, secs(span), kinds...)
	}
	p := faults.Plan{Seed: cfg.Seed}
	for _, w := range fs.Windows {
		k, _ := faults.KindByName(w.Kind)
		p.Faults = append(p.Faults, faults.Fault{
			Kind:      k,
			Start:     simtime.Time(simtime.FromMillis(w.StartMs)),
			Duration:  simtime.FromMillis(w.DurationMs),
			Magnitude: w.Magnitude,
		})
	}
	sort.SliceStable(p.Faults, func(i, j int) bool {
		if p.Faults[i].Start != p.Faults[j].Start {
			return p.Faults[i].Start < p.Faults[j].Start
		}
		return p.Faults[i].Kind < p.Faults[j].Kind
	})
	return p
}

// scenarioScript builds the typing workload's input script: the
// document's explicit stanzas when present, otherwise the seeded
// typist over deterministic filler prose.
func (sc scRun) scenarioScript(startMs float64) *input.Script {
	if len(sc.stanzas) == 0 {
		wpm := defF(sc.prm.WPM, 70)
		ty := input.NewTypist(sc.seed, wpm)
		return &input.Script{
			Events: ty.Type(simtime.Time(simtime.FromMillis(startMs)), input.SampleText(sc.prm.Chars)),
		}
	}
	var evs []input.Event
	for i, st := range sc.stanzas {
		at := simtime.Time(simtime.FromMillis(st.AtMs))
		switch st.Type {
		case "typist":
			// Each stanza forks its own stream so reordering one stanza
			// never reshuffles another's pacing.
			ty := input.NewTypist(sc.seed+uint64(i)*0x9e3779b97f4a7c15, st.WPM)
			evs = append(evs, ty.Type(at, input.SampleText(st.Chars))...)
		case "text":
			evs = append(evs, input.TypeText(at, input.SampleText(st.Chars), simtime.FromMillis(st.PerKeyMs))...)
		case "keydowns":
			vk := st.VK
			if vk == 0 {
				vk = input.VKPageDown
			}
			evs = append(evs, input.KeyDowns(at, vk, st.Count, simtime.FromMillis(st.PerKeyMs))...)
		case "click":
			evs = append(evs, input.Click(at, simtime.FromMillis(st.HoldMs))...)
		case "command":
			evs = append(evs, input.Command(at, st.Cmd))
		}
	}
	s := &input.Script{Events: evs}
	s.Sort()
	return s
}

// defF returns v, or def when v is zero — scenario parameters default
// to the constants the pre-DSL experiments hardcoded.
func defF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// secs converts a float second count to a simulated duration.
func secs(v float64) simtime.Duration { return simtime.Duration(v * float64(simtime.Second)) }

// ScenarioResult is the rendered outcome of a single-run (non-compare)
// scenario: the standard latency-analysis row plus the cliff metrics
// the fuzzer selects on.
type ScenarioResult struct {
	DocID   string
	Banner  string
	Persona string
	Machine string
	Seed    uint64
	Plan    faults.Plan
	Row     ExtFaultsRow
}

// Cliff returns the run's cliff metrics: worst and mean event latency
// in milliseconds, and their ratio (1 when the run had no events).
func (r *ScenarioResult) Cliff() (maxMs, meanMs, ratio float64) {
	s := r.Row.Report.Summary()
	if len(r.Row.Report.Events) == 0 || s.Mean == 0 {
		return s.Max, s.Mean, 1
	}
	return s.Max, s.Mean, s.Max / s.Mean
}

// Render implements Result.
func (r *ScenarioResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Scenario %s — %s\n\n", r.DocID, r.Banner)
	fmt.Fprintf(w, "  persona %s on %s, seed %d\n", r.Persona, r.Machine, r.Seed)
	if r.Plan.Empty() {
		fmt.Fprintf(w, "  fault plan: (no faults)\n")
	} else {
		fmt.Fprintf(w, "  fault plan:\n")
		for _, f := range r.Plan.Faults {
			fmt.Fprintf(w, "    %s\n", f)
		}
	}
	fmt.Fprintln(w)
	r.Row.render(w, "  ", "  ")
	maxMs, meanMs, ratio := r.Cliff()
	fmt.Fprintf(w, "  cliff: max %s vs mean %s (%.1fx)\n", fmtMs(maxMs), fmtMs(meanMs), ratio)
	fmt.Fprintln(w)
	return nil
}

// Artifacts implements ArtifactProvider.
func (r *ScenarioResult) Artifacts() []Artifact {
	return []Artifact{
		EventsArtifact("run", r.Row.Report.Events),
		ReportArtifact("run", r.Row.Report),
	}
}
