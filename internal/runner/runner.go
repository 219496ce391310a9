// Package runner runs independent jobs on a worker pool and hands their
// results back in order. Ordered is the pool: it feeds job indices in
// order, stops feeding on cancellation or a drain signal, and emits the
// results strictly in index order whatever the completion order, so the
// output is the same at every worker count. Do runs one job under a
// timeout, turning a panic into an error that carries its stack and
// abandoning a job that ignores its context.
//
// Run drives the experiment suite on them. Each experiment boots its own
// simulated machine and runs once, at the configured seed; a panicking
// or timed-out experiment becomes a failed run record instead of a
// crashed suite. The manifest holds one RunRecord per experiment, with
// timings, seed, and environment, so CI or an agent can rank and re-run
// experiments without parsing the human rendering. The campaign engine
// runs its cells on the same pool and attempt wrapper.
package runner

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"latlab/internal/experiments"
	"latlab/internal/scenario"
)

// Options tunes a suite run.
type Options struct {
	// Jobs is the worker-pool size; <=0 means runtime.NumCPU().
	Jobs int
	// Timeout bounds each experiment's wall time; 0 means no limit. A
	// timed-out experiment becomes a failed RunRecord and its goroutine
	// is abandoned (the simulators have no preemption hook), so the
	// remaining experiments still complete.
	Timeout time.Duration
	// Config is passed to every experiment.
	Config experiments.Config
}

// ArtifactRecord summarizes one exported artifact in a RunRecord.
type ArtifactRecord struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Samples int    `json:"samples"`
}

// RunRecord is the machine-readable outcome of one experiment.
type RunRecord struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick"`
	// Machine is the short id of the hardware profile the experiment ran
	// on ("p100" unless overridden).
	Machine string `json:"machine"`
	// WallSeconds is host time spent inside Spec.Run.
	WallSeconds float64 `json:"wall_seconds"`
	// SimSeconds is the longest simulated span any report artifact
	// covers — how much machine time the experiment simulated, as far as
	// its exported data shows. Zero when no artifact carries a report.
	SimSeconds float64 `json:"sim_seconds"`
	// Samples totals the data points across all artifacts.
	Samples   int              `json:"samples"`
	Artifacts []ArtifactRecord `json:"artifacts,omitempty"`
	// Error is empty on success. Panics and timeouts land here too,
	// flagged by Panicked / TimedOut.
	Error    string `json:"error,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`
	// Cancelled marks a synthetic record for a spec whose result the run
	// never collected because the suite was cancelled first.
	Cancelled bool `json:"cancelled,omitempty"`
	// Scenario is the full declarative document of a file-backed or
	// scenario-registered experiment (experiments.FromScenario), absent
	// for hand-written experiments — so a -json manifest records the
	// complete config every such run can be reproduced from.
	Scenario *scenario.Doc `json:"scenario,omitempty"`
}

// Failed reports whether the experiment did not produce a result.
func (r RunRecord) Failed() bool { return r.Error != "" }

// Manifest is the structured record of a whole suite run.
type Manifest struct {
	StartedAt string `json:"started_at"`
	Seed      uint64 `json:"seed"`
	Quick     bool   `json:"quick"`
	// Machine is the short id of the hardware profile the suite ran on.
	Machine   string  `json:"machine"`
	Jobs      int     `json:"jobs"`
	TimeoutS  float64 `json:"timeout_seconds,omitempty"`
	GoVersion string  `json:"go_version"`
	OS        string  `json:"os"`
	Arch      string  `json:"arch"`
	NumCPU    int     `json:"num_cpu"`
	// WallSeconds is the wall time of the whole run; with -jobs > 1 it
	// is less than the sum of the per-record wall times.
	WallSeconds float64     `json:"wall_seconds"`
	Records     []RunRecord `json:"records"`
}

// Failed counts records without a result.
func (m *Manifest) Failed() int {
	n := 0
	for _, r := range m.Records {
		if r.Failed() {
			n++
		}
	}
	return n
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Outcome pairs an experiment's record with its live result. Result is
// nil when the record is failed.
type Outcome struct {
	Spec   experiments.Spec
	Result experiments.Result
	Record RunRecord
}

// Run executes specs on a worker pool of opt.Jobs goroutines and calls
// emit (if non-nil) once per spec, in the order of specs, regardless of
// completion order. A panicking or timed-out experiment is reported as a
// failed record; the remaining experiments still run. If emit returns an
// error the run is cancelled and that error returned. The returned
// manifest always lists exactly one record per spec, in specs order:
// specs whose results the cancelled run never collected get a synthetic
// record with Error "cancelled" and Cancelled set, so downstream tooling
// can join manifests against the spec list positionally.
func Run(ctx context.Context, specs []experiments.Spec, opt Options, emit func(Outcome) error) (*Manifest, error) {
	man := &Manifest{
		StartedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:      opt.Config.Seed,
		Quick:     opt.Config.Quick,
		Machine:   opt.Config.MachineProfile().Short,
		Jobs:      workers(opt.Jobs, len(specs)),
		TimeoutS:  opt.Timeout.Seconds(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	start := time.Now()
	err := Ordered(ctx, len(specs), opt.Jobs, nil,
		func(ctx context.Context, i int) Outcome { return runOne(ctx, specs[i], opt) },
		func(_ int, out Outcome) error {
			man.Records = append(man.Records, out.Record)
			if emit == nil {
				return nil
			}
			return emit(out)
		})
	// Records are appended strictly in specs order, so everything the run
	// never collected — the feed stopped on cancellation, or an emit error
	// stopped collection — is the suffix. Synthesize its records here so
	// len(Records) == len(specs) on every path.
	for _, s := range specs[len(man.Records):] {
		rec := newRecord(s, opt)
		rec.Error, rec.Cancelled = "cancelled", true
		man.Records = append(man.Records, rec)
	}
	man.WallSeconds = time.Since(start).Seconds()
	return man, err
}

// newRecord returns s's record before it runs.
func newRecord(s experiments.Spec, opt Options) RunRecord {
	return RunRecord{
		ID: s.ID, Title: s.Title, Paper: s.Paper,
		Seed: opt.Config.Seed, Quick: opt.Config.Quick,
		Machine:  opt.Config.MachineProfile().Short,
		Scenario: s.Scenario,
	}
}

// runOne runs a single spec once under the per-experiment timeout,
// converting a panic or timeout into a failed record.
func runOne(ctx context.Context, s experiments.Spec, opt Options) Outcome {
	cfg := opt.Config
	// Scope span-track names to the spec so a shared collector names
	// tracks identically whatever the completion order of the pool.
	cfg.TraceTag = s.ID
	a := Do(ctx, opt.Timeout, func(ctx context.Context) (experiments.Result, error) { return s.Run(ctx, cfg) })
	rec := newRecord(s, opt)
	rec.WallSeconds = a.Wall.Seconds()
	if a.Err != nil {
		rec.Error, rec.Panicked, rec.TimedOut = a.Err.Error(), a.Panicked, a.TimedOut
		return Outcome{Spec: s, Record: rec}
	}
	summarize(a.Value, &rec)
	return Outcome{Spec: s, Result: a.Value, Record: rec}
}

// summarize fills the record's artifact inventory from the result.
func summarize(res experiments.Result, rec *RunRecord) {
	ap, ok := res.(experiments.ArtifactProvider)
	if !ok {
		return
	}
	for _, a := range ap.Artifacts() {
		n := a.Samples()
		rec.Artifacts = append(rec.Artifacts, ArtifactRecord{
			Kind: a.Kind.String(), Name: a.Name, Samples: n,
		})
		rec.Samples += n
		if a.Report != nil {
			if s := a.Report.Elapsed.Seconds(); s > rec.SimSeconds {
				rec.SimSeconds = s
			}
		}
	}
}
