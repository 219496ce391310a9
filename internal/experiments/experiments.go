// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment is a Spec in the registry; running one
// boots the personas it needs, drives the workload, measures it with the
// internal/core methodology, and returns a typed Result that can render
// itself in the paper's format (via internal/viz) and that tests and
// benchmarks assert shape properties against.
//
// The per-experiment index lives in DESIGN.md; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"latlab/internal/core"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/spans"
	"latlab/internal/system"
	"latlab/internal/trace"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives every stochastic model (typist pacing, disk rotation).
	Seed uint64
	// Quick trims workload sizes so the full suite stays fast in tests;
	// benchmarks and the CLI run the paper-sized workloads.
	Quick bool
	// Machine is the hardware profile every rig boots on; the zero value
	// means the paper's Pentium (machine.Pentium100). Experiments that
	// compare machines (the ext-hw family) ignore it and boot their own.
	Machine machine.Profile
	// Trace, when non-nil, attaches a span recorder to every rig the
	// experiment boots and deposits each rig's span log as a named track
	// ("persona @ machine") at shutdown. Tracing never perturbs the
	// simulation; leaving Trace nil keeps the exact untraced code path.
	Trace *spans.Collector
	// TraceTag, when set, prefixes every track name this run deposits
	// ("tag: persona @ machine"). The runner sets it to the spec id so a
	// suite-wide trace names tracks identically for any job count —
	// without it, same-named tracks from different experiments would get
	// completion-order-dependent "#n" suffixes.
	TraceTag string
	// Engine is ignored: every machine runs the one engine.
	//
	// Deprecated: kept only because the benchmark module (bench/) still
	// sets it.
	Engine kernel.Engine
	// IdleArena is ignored: the idle-loop instrument folds its samples
	// into busy spans as it records them and stores none.
	//
	// Deprecated: kept only because the benchmark module (bench/) still
	// sets it.
	IdleArena *[]trace.IdleSample
}

// DefaultConfig returns the paper-sized configuration.
func DefaultConfig() Config { return Config{Seed: 1996} }

// MachineProfile returns the configured hardware profile, defaulted.
func (c Config) MachineProfile() machine.Profile { return c.Machine.OrDefault() }

// Result is a rendered experiment outcome.
type Result interface {
	// Render writes the paper-style presentation.
	Render(w io.Writer) error
}

// ArtifactKind classifies the data an Artifact carries.
type ArtifactKind uint8

// Artifact kinds.
const (
	// ArtifactEvents is a named list of extracted interactive events;
	// cmd/latbench exports it as a CSV and an SVG time series.
	ArtifactEvents ArtifactKind = iota
	// ArtifactProfile is a named CPU-utilization profile; cmd/latbench
	// exports it as an SVG profile plot.
	ArtifactProfile
	// ArtifactReport is a named latency report; cmd/latbench exports its
	// histogram and cumulative curve as SVGs.
	ArtifactReport
)

// String returns the manifest name of the kind.
func (k ArtifactKind) String() string {
	switch k {
	case ArtifactEvents:
		return "events"
	case ArtifactProfile:
		return "profile"
	case ArtifactReport:
		return "report"
	default:
		return fmt.Sprintf("ArtifactKind(%d)", uint8(k))
	}
}

// Artifact is one exportable data product of an experiment: raw events,
// a utilization profile, or a latency report. Exactly one of Events,
// Profile, Report is set, selected by Kind. Artifacts replace the former
// per-capability exporter interfaces so cmd/latbench (and the runner's
// manifest) handle every result uniformly and in a deterministic order.
type Artifact struct {
	Kind ArtifactKind
	// Name distinguishes artifacts of the same kind, e.g. the persona.
	Name string

	Events  []core.Event
	Profile []core.ProfilePoint
	Report  *core.Report
}

// Samples returns the number of data points the artifact carries.
func (a Artifact) Samples() int {
	switch a.Kind {
	case ArtifactEvents:
		return len(a.Events)
	case ArtifactProfile:
		return len(a.Profile)
	case ArtifactReport:
		if a.Report != nil {
			return len(a.Report.Events)
		}
	}
	return 0
}

// EventsArtifact builds an ArtifactEvents artifact.
func EventsArtifact(name string, events []core.Event) Artifact {
	return Artifact{Kind: ArtifactEvents, Name: name, Events: events}
}

// ProfileArtifact builds an ArtifactProfile artifact.
func ProfileArtifact(name string, pts []core.ProfilePoint) Artifact {
	return Artifact{Kind: ArtifactProfile, Name: name, Profile: pts}
}

// ReportArtifact builds an ArtifactReport artifact.
func ReportArtifact(name string, rep *core.Report) Artifact {
	return Artifact{Kind: ArtifactReport, Name: name, Report: rep}
}

// ArtifactProvider is implemented by results that carry exportable data
// products. The returned slice order is the export order, so it must be
// deterministic for a given result.
type ArtifactProvider interface {
	Artifacts() []Artifact
}

// Spec describes one registered experiment.
type Spec struct {
	// ID is the registry key, matching the paper artifact ("fig1"..).
	ID string
	// Title is a one-line description.
	Title string
	// Paper cites the reproduced artifact.
	Paper string
	// Run executes the experiment. It must honor ctx cancellation at
	// persona/trial granularity (the runner additionally enforces hard
	// timeouts from outside) and report failures as errors rather than
	// writing to the result.
	Run func(ctx context.Context, cfg Config) (Result, error)
	// Scenario is the declarative document this spec was compiled from
	// (FromScenario), nil for hand-written experiments. The runner
	// copies it into the manifest so a -json record carries the full
	// declarative config of every file-backed run.
	Scenario *scenario.Doc
}

var registry []Spec

// Register adds s to the experiment registry. It panics on a duplicate,
// empty, or Run-less spec so a misdeclared experiment fails at init time
// rather than silently shadowing another.
func Register(s Spec) {
	if s.ID == "" {
		panic("experiments: Register with empty ID")
	}
	if s.Run == nil {
		panic(fmt.Sprintf("experiments: Register(%s) with nil Run", s.ID))
	}
	for _, old := range registry {
		if old.ID == s.ID {
			panic(fmt.Sprintf("experiments: duplicate experiment ID %q", s.ID))
		}
	}
	registry = append(registry, s)
}

// All returns every registered experiment in paper order.
func All() []Spec {
	return sortSpecs(registry)
}

// paperOrder fixes presentation order to follow the paper.
var paperOrder = map[string]int{}

func init() {
	for i, id := range []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "table1", "fig9", "fig10", "fig11", "table2", "fig12", "s54",
		"ext-batching", "ext-thinkwait", "ext-metric", "ext-slowcpu", "ext-interrupts",
		"ext-faults-disk", "ext-faults-irq", "ext-faults-cache",
		"ext-hw-clock", "ext-hw-l2", "ext-hw-tlb", "ext-attrib",
		"ext-modern-clock", "ext-modern-dvfs", "ext-modern-nvme",
		"ext-modern-irq", "ext-modern-smt"} {
		paperOrder[id] = i
	}
}

// sortSpecs returns a copy of specs in paper order. IDs the paper
// ordering does not know sort after every known one and keep their
// relative order in specs (registration order), so new experiments get a
// stable position without editing the paper list.
func sortSpecs(specs []Spec) []Spec {
	out := append([]Spec(nil), specs...)
	rank := func(id string) int {
		if r, ok := paperOrder[id]; ok {
			return r
		}
		return len(paperOrder)
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i].ID) < rank(out[j].ID) })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// rig is a booted, instrumented machine.
type rig struct {
	sys *system.System
	pr  *core.Probe
	il  *core.IdleLoop

	// rec is the attached span recorder, nil when untraced; col (with
	// track) is where shutdown deposits the span log.
	rec   *spans.Recorder
	col   *spans.Collector
	track string
}

// newRig boots persona p on cfg's machine profile with probe and
// idle-loop instrumentation. The instrument keeps busy spans only; a
// driver that reads raw samples turns its tap on (r.il.Record) before
// the run.
func newRig(cfg Config, p persona.P) *rig {
	return newRigOn(cfg, p, cfg.MachineProfile())
}

// newRigOn boots persona p on an explicit hardware profile; the ext-hw
// scenario-matrix experiments use it to compare machines side by side.
func newRigOn(cfg Config, p persona.P, prof machine.Profile) *rig {
	sys := system.New(system.Config{Persona: p, Machine: prof})
	pr := core.AttachProbe(sys.K)
	r := &rig{sys: sys, pr: pr, il: core.StartIdleLoop(sys.K)}
	if cfg.Trace != nil {
		r.col = cfg.Trace
		r.track = p.Name + " @ " + prof.OrDefault().Short
		if cfg.TraceTag != "" {
			r.track = cfg.TraceTag + ": " + r.track
		}
		r.spansOn()
	}
	return r
}

// spansOn attaches a span recorder to the rig's kernel and returns it;
// repeat calls return the already-attached recorder. The span slab grows
// by append to what the rig records (a quick ext-attrib rig records
// ~20k spans), instead of starting at a fixed size every rig may not
// need.
func (r *rig) spansOn() *spans.Recorder {
	if r.rec == nil {
		rec := spans.NewRecorder(r.sys.K.Now)
		r.sys.K.SetRecorder(rec)
		r.rec = rec
	}
	return r.rec
}

func (r *rig) shutdown() {
	r.sys.Shutdown()
	if r.col != nil {
		r.col.Add(r.track, r.rec.Spans())
	}
}

// extract pulls the events of thread from the instrumentation: the
// instrument's busy spans and the probe's message log. It reads the same
// after shutdown.
func (r *rig) extract(t *kernel.Thread, strip bool) []core.Event {
	return r.il.Extract(r.pr.Msgs, core.ExtractOptions{
		Thread:         t.ID(),
		StripQueueSync: strip,
	})
}

// chainStep is one completion-paced input: the driver waits for the
// application to go quiescent, pauses for think time, then injects —
// how a scripted "user" (or Microsoft Test's wait-for-idle) really paces
// a task like the paper's PowerPoint scenario.
type chainStep struct {
	kind  kernel.MsgKind
	param int64
	think simtime.Duration
}

// step builds a chainStep.
func step(kind kernel.MsgKind, param int64, think simtime.Duration) chainStep {
	return chainStep{kind: kind, param: param, think: think}
}

// driveChain installs a completion-paced driver for steps on sys. The
// final completion time is written to *done (simtime zero until then).
func driveChain(sys *system.System, steps []chainStep, sync bool, done *simtime.Time) {
	const poll = 20 * simtime.Millisecond
	quiescent := func() bool {
		f := sys.Focus()
		return f.State() == kernel.StateBlockedMsg && f.QueueLen() == 0 &&
			sys.K.SyncIOOutstanding() == 0
	}
	var issue func(i int)
	waitQuiet := func(next func(now simtime.Time)) {
		var check func(now simtime.Time)
		check = func(now simtime.Time) {
			if quiescent() {
				next(now)
				return
			}
			sys.K.At(now.Add(poll), check)
		}
		sys.K.At(sys.K.Now().Add(poll), check)
	}
	issue = func(i int) {
		if i >= len(steps) {
			*done = sys.K.Now()
			return
		}
		st := steps[i]
		sys.K.At(sys.K.Now().Add(st.think), func(now simtime.Time) {
			sys.Inject(st.kind, st.param, sync)
			waitQuiet(func(simtime.Time) { issue(i + 1) })
		})
	}
	waitQuiet(func(simtime.Time) { issue(0) })
}

// fmtMs formats a millisecond value compactly.
func fmtMs(ms float64) string {
	if ms >= 1000 {
		return fmt.Sprintf("%.3fs", ms/1000)
	}
	return fmt.Sprintf("%.2fms", ms)
}
