package experiments

import (
	"fmt"
	"io"

	"latlab/internal/apps"
	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/faults"
	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// The ext-faults-* family reruns the paper's latency analysis under
// deterministic injected degradations (internal/faults): the same
// workload is simulated clean and degraded on NT 4.0, and the rendered
// comparison shows how each fault class moves the latency distribution
// — tail inflation for disk faults, interarrival clustering for
// interrupt storms, warm-state collapse for cache pressure. The paper's
// multi-second PowerPoint stalls (Table 1) are exactly this kind of
// adverse-condition latency; here we produce them on demand.

// ExtFaultsRow is one (clean or degraded) run's analysis.
type ExtFaultsRow struct {
	Label  string
	Report *core.Report
	// Think/wait FSM breakdown (§2.4 methodology) over the run.
	ThinkMs, WaitMs float64
	Transitions     int
	// Machine-level fault counters.
	Retries, MediaErrors, IOErrors, ForcedEvictions, Interrupts int64
}

// ExtFaultsResult is a clean-vs-degraded comparison under one fault
// plan.
type ExtFaultsResult struct {
	ID    string
	Title string
	Plan  faults.Plan
	Rows  []ExtFaultsRow // exactly {clean, degraded}
}

// Render implements Result.
func (r *ExtFaultsResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (robustness) — %s, NT 4.0 clean vs degraded\n\n", r.Title)
	fmt.Fprintf(w, "  fault plan (seed %d):\n", r.Plan.Seed)
	for _, f := range r.Plan.Faults {
		fmt.Fprintf(w, "    %s\n", f)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		row.render(w, fmt.Sprintf("  %-8s ", row.Label+":"), "           ")
	}
	fmt.Fprintln(w)
	return nil
}

// render writes the row's four analysis lines, the first after lead and
// the rest after indent.
func (row ExtFaultsRow) render(w io.Writer, lead, indent string) {
	rep := row.Report
	ia := rep.Interarrival(core.PerceptionThresholdMs)
	fmt.Fprintf(w, "%s%4d events  mean %s  >0.1s: %d  total latency %.2fs\n",
		lead, len(rep.Events), fmtMs(rep.Summary().Mean),
		rep.CountAbove(core.PerceptionThresholdMs), rep.TotalLatency().Seconds())
	fmt.Fprintf(w, "%sinterarrival of >0.1s events: n=%d mean %.2fs sd %.2fs\n",
		indent, ia.Count, ia.MeanSec, ia.StdDevSec)
	fmt.Fprintf(w, "%sthink %.1fs / wait %.1fs (%d transitions)\n",
		indent, row.ThinkMs/1000, row.WaitMs/1000, row.Transitions)
	fmt.Fprintf(w, "%smachine: retries=%d media-errors=%d io-errors=%d evictions=%d interrupts=%d\n",
		indent, row.Retries, row.MediaErrors, row.IOErrors, row.ForcedEvictions, row.Interrupts)
}

// Artifacts implements ArtifactProvider.
func (r *ExtFaultsResult) Artifacts() []Artifact {
	var out []Artifact
	for _, row := range r.Rows {
		out = append(out, EventsArtifact(row.Label, row.Report.Events),
			ReportArtifact(row.Label, row.Report))
	}
	return out
}

// faultsTarget builds the arming target for a booted rig: a dedicated
// "indexer" background thread (the inversion victim), boosted above the
// application during PriorityInversion windows.
func faultsTarget(r *rig, needBackground bool) faults.Target {
	t := faults.Target{K: r.sys.K, BoostPrio: system.AppPrio + 2}
	if needBackground {
		burst := r.sys.P.Kernel.ClockInterrupt
		burst.Name = "indexer"
		burst.BaseCycles = 1_200_000 // 12 ms at 100 MHz
		sleep := true
		t.Background = r.sys.K.SpawnLoop("indexer", kernel.KernelProc, system.BackgroundPrio, func(lc *kernel.LoopTC) bool {
			if sleep {
				lc.Sleep(40 * simtime.Millisecond)
			} else {
				lc.Compute(burst)
			}
			sleep = !sleep
			return true
		})
	}
	return t
}

// openPPT boots the paper's PowerPoint task (launch, open, page
// through, OLE edit, save — §5.2) under plan as a completion-paced
// chain session; an empty plan is the clean baseline. The deck, paging,
// pacing and deadline come from the compiled scenario run: empty
// PageDowns means the full paper task ([9,10,10]), and each PageDowns
// entry is one OLE edit.
func openPPT(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	params := apps.DefaultPowerpointParams()
	if sc.prm.Slides != 0 {
		params.Slides = sc.prm.Slides
	}
	if len(sc.prm.ObjectSlides) > 0 {
		params.ObjectSlides = sc.prm.ObjectSlides
	}
	pageDowns := sc.prm.PageDowns
	if len(pageDowns) == 0 {
		pageDowns = []int{9, 10, 10}
	}
	r := newRig(cfg, sc.p)
	faults.NewClock(plan).Arm(faultsTarget(r, false))
	ppt := apps.NewPowerpoint(r.sys, params)

	think := simtime.FromMillis(defF(sc.prm.ThinkMs, 300))
	var steps []chainStep
	steps = append(steps, step(kernel.WMCommand, apps.CmdLaunch, 500*simtime.Millisecond))
	steps = append(steps, step(kernel.WMCommand, apps.CmdOpen, think))
	for i, downs := range pageDowns {
		for j := 0; j < downs; j++ {
			steps = append(steps, step(kernel.WMKeyDown, input.VKPageDown, think))
		}
		steps = append(steps, step(kernel.WMCommand, apps.CmdEditObject+int64(i), think))
		// Modify the object: a few keystrokes ≥150 ms apart (§5.2).
		for k := 0; k < 3; k++ {
			steps = append(steps, step(kernel.WMChar, '7', 150*simtime.Millisecond))
		}
		steps = append(steps, step(kernel.WMCommand, apps.CmdEndEdit, think))
	}
	steps = append(steps, step(kernel.WMCommand, apps.CmdSave, think))

	return openChain(label, r, ppt.Thread(), steps, true,
		simtime.Time(secs(defF(sc.prm.DeadlineS, 380))))
}

// openChain installs a completion-paced chain driver for steps on r
// and wraps it as a session: 500 ms poll slices until the chain
// completes (panicking at deadline if it has not), then 2 s of
// trailing time.
func openChain(label string, r *rig, t *kernel.Thread, steps []chainStep, sync bool, deadline simtime.Time) *ScenarioSession {
	r.pr.Watch(t)
	s := &ScenarioSession{r: r, label: label, thread: t,
		deadline: deadline, chainDone: new(simtime.Time)}
	driveChain(r.sys, steps, sync, s.chainDone)
	return s
}

// openTyping boots a paced Notepad typing session under plan. Input
// comes from the scenario run: the seeded typist by default, or the
// document's explicit stanza timeline. The whole script is installed up
// front, so Drive makes one Run to the script end plus trailing time.
func openTyping(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	r := newRig(cfg, sc.p)
	faults.NewClock(plan).Arm(faultsTarget(r, true))
	n := apps.NewNotepad(r.sys, 250_000)
	r.pr.Watch(n.Thread())
	script := sc.scenarioScript(defF(sc.prm.StartMs, 300))
	script.Install(r.sys)
	return &ScenarioSession{r: r, label: label, thread: n.Thread(),
		end: script.End().Add(secs(defF(sc.prm.TrailingS, 3)))}
}

// faultsRow extracts the common analysis from a finished rig.
func faultsRow(label string, r *rig, t *kernel.Thread, end simtime.Time) ExtFaultsRow {
	events := r.extract(t, true)
	f := r.pr.FSM(end)
	k := r.sys.K
	return ExtFaultsRow{
		Label:           label,
		Report:          core.NewReport(events, simtime.Duration(end)),
		ThinkMs:         f.ThinkTime().Milliseconds(),
		WaitMs:          f.WaitTime().Milliseconds(),
		Transitions:     f.Transitions(),
		Retries:         k.Disk().Retries(),
		MediaErrors:     k.Disk().MediaErrors(),
		IOErrors:        k.IOErrors(),
		ForcedEvictions: k.Cache().ForcedEvictions(),
		Interrupts:      k.CPU().Count(cpu.Interrupts),
	}
}

// openBrowser boots a document-browser session under plan whose
// warmth lives in the buffer cache: each page-down reads the next
// 64-page window of a large report file in small chunks, cycling
// through the file twice, so the second pass is cache-warm on a clean
// machine and cold again under eviction pressure — the paper's
// "effects of the file system cache" phenomenon produced (and
// destroyed) on demand.
func openBrowser(label string, cfg Config, sc scRun, plan faults.Plan) *ScenarioSession {
	const viewPages, chunk = 64, 8
	views := sc.prm.Views
	r := newRig(cfg, sc.p)
	faults.NewClock(plan).Arm(faultsTarget(r, false))

	db := r.sys.K.Cache().AddFile("reports.db", 600_000, int64(views)*viewPages)
	browse := cpu.Segment{Name: "browse", BaseCycles: 400_000,
		Instructions: 250_000, DataRefs: 90_000,
		CodePages: []uint64{700, 701, 702}, DataPages: []uint64{720, 721}}
	view := int64(0)
	app := r.sys.SpawnApp("browser", func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			if m.Kind != kernel.WMKeyDown {
				continue
			}
			base := (view % int64(views)) * viewPages
			for q := int64(0); q < viewPages; q += chunk {
				tc.ReadFile(db, base+q, chunk)
			}
			tc.Compute(browse)
			view++
		}
	})

	var steps []chainStep
	think := simtime.FromMillis(defF(sc.prm.ThinkMs, 300))
	for i := 0; i < 2*views; i++ {
		steps = append(steps, step(kernel.WMKeyDown, input.VKPageDown, think))
	}
	return openChain(label, r, app, steps, true,
		simtime.Time(secs(defF(sc.prm.DeadlineS, 110))))
}

// compareCleanDegraded is the canonical comparison of the ext-faults
// family: the same workload once on a clean machine, once under the
// document's fault plan.
func compareCleanDegraded() []scenario.Row {
	return []scenario.Row{{Label: "clean"}, {Label: "degraded", Faulted: true}}
}

// pptTaskWorkload is the paper's §5.2 PowerPoint task: the 46-slide
// deck paged to slides 10, 20 and 30 with an OLE edit at each, trimmed
// in quick mode to a 12-slide deck and two edits. fig8, table1 and
// fig12 run it clean; ext-faults-disk runs it under disk faults.
func pptTaskWorkload() scenario.Workload {
	return scenario.Workload{
		Kind: scenario.KindPowerpoint,
		Full: scenario.Params{PageDowns: []int{9, 10, 10}},
		Quick: &scenario.Params{Slides: 12, ObjectSlides: []int{3, 6, 9},
			PageDowns: []int{2, 3}},
	}
}

// extFaultsDiskDoc declares ext-faults-disk: the §5.2 PowerPoint task
// under disk degradation. The span (120 s full, 30 s quick) matches
// the task so the windows land mid-run.
func extFaultsDiskDoc() scenario.Doc {
	return scenario.Doc{
		Schema:   scenario.SchemaVersion,
		ID:       "ext-faults-disk",
		Title:    "Latency analysis under injected disk faults",
		Banner:   "Powerpoint task under disk faults (degrade, stall, media errors)",
		Paper:    "Table 1, §5.2 (robustness extension)",
		Persona:  "nt40",
		Workload: pptTaskWorkload(),
		Faults: &scenario.FaultSpec{
			Kinds:      []string{"disk-degrade", "disk-stall", "disk-media-errors"},
			SpanS:      120,
			QuickSpanS: 30,
		},
		Compare: compareCleanDegraded(),
	}
}

// extFaultsIRQDoc declares ext-faults-irq: a typist session under
// interrupt and scheduler degradation. The span matches the typing
// session (~10 s quick, ~26 s full) so the windows land mid-session.
func extFaultsIRQDoc() scenario.Doc {
	return scenario.Doc{
		Schema:  scenario.SchemaVersion,
		ID:      "ext-faults-irq",
		Title:   "Latency analysis under interrupt and scheduler faults",
		Banner:  "Notepad typing under interrupt storm, timer jitter, priority inversion",
		Paper:   "§2.5, §5.3 (robustness extension)",
		Persona: "nt40",
		Workload: scenario.Workload{
			Kind:  scenario.KindTyping,
			Full:  scenario.Params{Chars: 150},
			Quick: &scenario.Params{Chars: 60},
		},
		Faults: &scenario.FaultSpec{
			Kinds:      []string{"irq-storm", "timer-jitter", "priority-inversion"},
			SpanS:      26,
			QuickSpanS: 12,
		},
		Compare: compareCleanDegraded(),
	}
}

// extFaultsCacheDoc declares ext-faults-cache: two browsing passes
// under buffer-cache pressure. The span (~8 s quick, ~18 s full)
// straddles the cache-warm second pass.
func extFaultsCacheDoc() scenario.Doc {
	return scenario.Doc{
		Schema:  scenario.SchemaVersion,
		ID:      "ext-faults-cache",
		Title:   "Latency analysis under cache pressure",
		Banner:  "document browsing under buffer-cache pressure",
		Paper:   "Table 1, §5.2 (robustness extension)",
		Persona: "nt40",
		Workload: scenario.Workload{
			Kind:  scenario.KindBrowse,
			Full:  scenario.Params{Views: 16},
			Quick: &scenario.Params{Views: 8},
		},
		Faults: &scenario.FaultSpec{
			Kinds:      []string{"cache-pressure"},
			SpanS:      18,
			QuickSpanS: 10,
		},
		Compare: compareCleanDegraded(),
	}
}

// extFaultsDocs returns the family's documents; the JSON twins under
// testdata/scenarios/ are kept byte-equivalent to these by
// TestScenarioTwinsMatchGoRegistered.
func extFaultsDocs() []scenario.Doc {
	return []scenario.Doc{extFaultsDiskDoc(), extFaultsIRQDoc(), extFaultsCacheDoc()}
}

func init() {
	// The ext-faults family registers through the scenario compiler:
	// these Go-declared documents and their file twins share one code
	// path end to end.
	for _, doc := range extFaultsDocs() {
		spec, err := FromScenario(doc)
		if err != nil {
			panic(err)
		}
		Register(spec)
	}
}
