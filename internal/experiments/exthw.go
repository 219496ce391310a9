// The ext-hw experiment family runs persona × machine scenario
// matrices: the paper measured three operating systems on one fixed
// machine (§2.1's 100 MHz Pentium) and *argued* from counters which
// hardware properties its latencies hinged on — clock rate (§5.1),
// L2 warmth (§4), and the untagged TLBs that protection-domain
// crossings flush (§5.3). With the hardware lifted into
// machine.Profile, each argument becomes a runnable counterfactual.
package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/stats"
)

// ExtHWCell is one persona-on-machine measurement: warm per-event
// latency plus the per-event hardware-counter rates that explain it.
type ExtHWCell struct {
	Persona string
	Machine string
	// Events is the number of warm events summarized (the cold first
	// event is dropped, as the paper's warm/cold split requires).
	Events int
	// Latency summarizes warm per-event latency in milliseconds.
	Latency stats.Summary
	// TLBMissesPerEvent, CacheMissesPerEvent and CrossingsPerEvent are
	// whole-run counter deltas divided by the event count.
	TLBMissesPerEvent   float64
	CacheMissesPerEvent float64
	CrossingsPerEvent   float64
}

// hwMemCell boots persona p on machine prof and drives keystrokes whose
// handler echoes one character through the persona's Win32 path
// (TextOut: two crossings on NT 3.51, none elsewhere) and then renders
// over `perEvent` cache chunks drawn from a circular `window` of
// distinct chunks. With window == perEvent the working set is fixed
// and L2-resident (misses once, then warm); with window much larger
// than the L2 the handler streams and every reference goes to DRAM on
// every event — the knob that makes an event compute-bound or
// memory-bound on a given machine.
func hwMemCell(cfg Config, p persona.P, prof machine.Profile, keystrokes, perEvent, window int) ExtHWCell {
	render := cpu.Segment{
		Name: "hw-render", BaseCycles: 100_000,
		Instructions: 60_000, DataRefs: 30_000,
		CodePages: []uint64{400, 401}, DataPages: []uint64{402, 403},
	}
	pos := 0
	w := keyWorkload{app: "hwmem", code: []uint64{400, 401}, keystrokes: keystrokes, gapMs: 200, tailMs: 2000}
	return paceKeys(cfg, p, prof, w, func(r *rig, tc *kernel.TC) {
		r.sys.Win.TextOut(tc, 1)
		seg := render
		seg.CacheChunks = make([]uint64, perEvent)
		for i := range seg.CacheChunks {
			seg.CacheChunks[i] = 100_000 + uint64((pos+i)%window)
		}
		pos = (pos + perEvent) % window
		tc.Compute(seg)
	}, hwCell)
}

// hwCell reduces a finished ext-hw run to its cell: warm latency over
// every event but the cold first one, and whole-run counter deltas per
// event.
func hwCell(k *keyRun) ExtHWCell {
	events := k.r.extract(k.app, false)
	cell := ExtHWCell{Persona: k.r.sys.P.Name, Machine: k.r.sys.M.Short}
	if len(events) < 2 {
		return cell
	}
	var warm []float64
	for _, ev := range events[1:] { // drop the cold trial
		warm = append(warm, ev.Latency.Milliseconds())
	}
	n := float64(len(events))
	cell.Events = len(warm)
	cell.Latency = stats.Summarize(warm)
	cell.TLBMissesPerEvent = float64(k.delta(cpu.ITLBMisses)+k.delta(cpu.DTLBMisses)) / n
	cell.CacheMissesPerEvent = float64(k.delta(cpu.CacheMisses)) / n
	cell.CrossingsPerEvent = float64(k.delta(cpu.DomainCrossings)) / n
	return cell
}

// cellFor returns the cell for (persona, machine short), or a zero cell.
func cellFor(cells []ExtHWCell, persona, short string) ExtHWCell {
	for _, c := range cells {
		if c.Persona == persona && c.Machine == short {
			return c
		}
	}
	return ExtHWCell{}
}

// ---------------------------------------------------------------- clock

// ExtHWClockResult is the ext-hw-clock matrix: every persona on the
// paper's Pentium and on a double-clocked part whose memory penalties
// did not shrink with it.
type ExtHWClockResult struct {
	Base, Fast string // machine shorts
	Cells      []ExtHWCell
}

// Render implements Result.
func (r *ExtHWClockResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§5.1) — persona × clock-rate matrix (streaming redraw keystrokes, warm)\n\n")
	fmt.Fprintf(w, "  %-16s %12s %12s %9s\n", "persona", r.Base, r.Fast, "speedup")
	for _, p := range persona.All() {
		base := cellFor(r.Cells, p.Name, r.Base)
		fast := cellFor(r.Cells, p.Name, r.Fast)
		speed := 0.0
		if fast.Latency.Mean > 0 {
			speed = base.Latency.Mean / fast.Latency.Mean
		}
		fmt.Fprintf(w, "  %-16s %10.2fms %10.2fms %8.2fx\n",
			p.Name, base.Latency.Mean, fast.Latency.Mean, speed)
	}
	fmt.Fprintf(w, "\n  Doubling the clock does not halve latency: TLB refills and DRAM\n")
	fmt.Fprintf(w, "  accesses cost the %s more cycles, so the memory-bound share of\n", r.Fast)
	fmt.Fprintf(w, "  each event shrinks less than the compute share — the memory wall\n")
	fmt.Fprintf(w, "  the paper's §5.1 slower-machine remark points at, run in reverse.\n")
	return nil
}

func runExtHWClock(ctx context.Context, cfg Config) (Result, error) {
	machines := []machine.Profile{machine.Pentium100(), machine.Pentium200()}
	res := &ExtHWClockResult{Base: machines[0].Short, Fast: machines[1].Short}
	for _, p := range persona.All() {
		for _, prof := range machines {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Stream 4000 chunks per event through a window twice the L2:
			// the redraw's DRAM share cannot be clocked away.
			res.Cells = append(res.Cells, hwMemCell(cfg, p, prof, pacedKeystrokes(cfg), 4000, 16384))
		}
	}
	return res, nil
}

// ------------------------------------------------------------------- L2

// ExtHWL2Result is the ext-hw-l2 matrix: a cache-resident render loop
// on the paper's Pentium versus the same part with its L2 removed.
type ExtHWL2Result struct {
	Base, NoL2 string
	Cells      []ExtHWCell
}

// Render implements Result.
func (r *ExtHWL2Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§4) — L2 warmth: cache-heavy keystrokes with and without an L2\n\n")
	fmt.Fprintf(w, "  %-10s %12s %14s %16s\n", "machine", "warm mean", "warm max", "cache miss/evt")
	for _, short := range []string{r.Base, r.NoL2} {
		c := cellFor(r.Cells, persona.NT40().Name, short)
		fmt.Fprintf(w, "  %-10s %10.2fms %12.2fms %16.0f\n",
			short, c.Latency.Mean, c.Latency.Max, c.CacheMissesPerEvent)
	}
	base := cellFor(r.Cells, persona.NT40().Name, r.Base)
	noL2 := cellFor(r.Cells, persona.NT40().Name, r.NoL2)
	fmt.Fprintf(w, "\n  delta: %+.2fms per keystroke\n", noL2.Latency.Mean-base.Latency.Mean)
	fmt.Fprintf(w, "\n  With an L2 the working set misses once and stays resident; without\n")
	fmt.Fprintf(w, "  one every reference goes to DRAM on every event — the paper's warm/\n")
	fmt.Fprintf(w, "  cold distinction (§4) is entirely a statement about this cache.\n")
	return nil
}

func runExtHWL2(ctx context.Context, cfg Config) (Result, error) {
	machines := []machine.Profile{machine.Pentium100(), machine.P100NoL2()}
	res := &ExtHWL2Result{Base: machines[0].Short, NoL2: machines[1].Short}
	for _, prof := range machines {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The same 6000 chunks every event: fits the 8192-line L2, so it
		// misses once and stays warm — unless there is no L2 at all.
		res.Cells = append(res.Cells, hwMemCell(cfg, persona.NT40(), prof, pacedKeystrokes(cfg), 6000, 6000))
	}
	return res, nil
}

// ------------------------------------------------------------------ TLB

// ExtHWTLBResult is the ext-hw-tlb matrix: the two NT personas on the
// paper's untagged-TLB Pentium and on a hypothetical tagged-TLB part.
// The paper attributes part of the NT 3.51 / NT 4.0 latency difference
// to the TLB flushes its server architecture forces — "at least 23-25%"
// (§5.3); tagging the TLBs deletes the flushes without touching the OS,
// so the gap shrinks by exactly the flush share, and what remains is
// the direct crossing cost, the longer server paths, and the CSRSS
// image overflowing the 32-entry ITLB.
type ExtHWTLBResult struct {
	Base, Tagged string
	Cells        []ExtHWCell
	// GapBase and GapTagged are the NT 3.51 − NT 4.0 warm-mean gaps (ms)
	// on each machine; CollapsePct is how much of the gap the tagged TLB
	// removed.
	GapBase, GapTagged float64
	CollapsePct        float64
	// FlushPenalty is NT 3.51's flush-induced latency (ms/event): its
	// warm mean on the untagged machine minus the tagged one. The tagged
	// TLB erases all of it by construction; reporting it shows how much
	// of the persona's own latency the crossings' flushes cost.
	FlushPenalty float64
}

// crossKeys is the crossing-heavy keystroke session of ext-hw-tlb and
// ext-attrib: each keystroke makes 4 Win32 calls, and after every call
// the application recomputes over a 48-page data window. On NT 3.51's
// untagged machine the return crossing has flushed the DTLB, so that
// window refills on every call; NT 4.0 pays one refill per event (the
// process-switch flush), and a tagged TLB pays none. app and work name
// the thread and its recompute segment, which are span labels.
func crossKeys(cfg Config, app, work string) (keyWorkload, func(r *rig, tc *kernel.TC)) {
	keystrokes, calls := 30, 4
	if cfg.Quick {
		keystrokes = 10
	}
	appData := make([]uint64, 48)
	for i := range appData {
		appData[i] = 1500 + uint64(i)
	}
	seg := cpu.Segment{
		Name: work, BaseCycles: 6000,
		Instructions: 3600, DataRefs: 1800,
		CodePages: []uint64{320, 321}, DataPages: appData,
	}
	w := keyWorkload{app: app, code: []uint64{320, 321}, keystrokes: keystrokes, gapMs: 200, tailMs: 2000}
	return w, func(r *rig, tc *kernel.TC) {
		for i := 0; i < calls; i++ {
			r.sys.Win.DefWindowProc(tc)
			tc.Compute(seg)
		}
	}
}

// Render implements Result.
func (r *ExtHWTLBResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§5.3) — tagged-TLB counterfactual (crossing-heavy keystrokes, warm)\n\n")
	fmt.Fprintf(w, "  %-16s %-8s %10s %14s %14s\n", "persona", "machine", "mean", "TLB miss/evt", "crossings/evt")
	for _, p := range persona.NTs() {
		for _, short := range []string{r.Base, r.Tagged} {
			c := cellFor(r.Cells, p.Name, short)
			fmt.Fprintf(w, "  %-16s %-8s %8.2fms %14.1f %14.1f\n",
				p.Name, short, c.Latency.Mean, c.TLBMissesPerEvent, c.CrossingsPerEvent)
		}
	}
	fmt.Fprintf(w, "\n  NT 3.51 − NT 4.0 gap: %.2fms on %s, %.2fms on %s (%.0f%% collapsed)\n",
		r.GapBase, r.Base, r.GapTagged, r.Tagged, r.CollapsePct)
	fmt.Fprintf(w, "  NT 3.51 flush-induced penalty: %.2fms/event on %s, erased on %s\n",
		r.FlushPenalty, r.Base, r.Tagged)
	fmt.Fprintf(w, "\n  Tagging the TLBs keeps every crossing but deletes its flush: NT 3.51's\n")
	fmt.Fprintf(w, "  refill misses vanish and its latency collapses toward NT 4.0's. The\n")
	fmt.Fprintf(w, "  residual gap is the direct crossing cost, the longer server paths, and\n")
	fmt.Fprintf(w, "  the CSRSS image overflowing the 32-entry ITLB — matching the paper's\n")
	fmt.Fprintf(w, "  attribution that TLB misses are \"at least 23-25%%\" of the difference\n")
	fmt.Fprintf(w, "  (§5.3), run as an experiment instead of an argument.\n")
	return nil
}

func runExtHWTLB(ctx context.Context, cfg Config) (Result, error) {
	machines := []machine.Profile{machine.Pentium100(), machine.PentiumTaggedTLB()}
	res := &ExtHWTLBResult{Base: machines[0].Short, Tagged: machines[1].Short}
	w, body := crossKeys(cfg, "hwcross", "hw-crosswork")
	for _, p := range persona.NTs() {
		for _, prof := range machines {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, paceKeys(cfg, p, prof, w, body, hwCell))
		}
	}
	nt351, nt40 := persona.NT351().Name, persona.NT40().Name
	res.GapBase = cellFor(res.Cells, nt351, res.Base).Latency.Mean - cellFor(res.Cells, nt40, res.Base).Latency.Mean
	res.GapTagged = cellFor(res.Cells, nt351, res.Tagged).Latency.Mean - cellFor(res.Cells, nt40, res.Tagged).Latency.Mean
	if res.GapBase != 0 {
		res.CollapsePct = 100 * (1 - res.GapTagged/res.GapBase)
	}
	res.FlushPenalty = cellFor(res.Cells, nt351, res.Base).Latency.Mean - cellFor(res.Cells, nt351, res.Tagged).Latency.Mean
	return res, nil
}

func init() {
	Register(Spec{ID: "ext-hw-clock", Title: "Persona × clock-rate scenario matrix",
		Paper: "§5.1 (extension)", Run: runExtHWClock})
	Register(Spec{ID: "ext-hw-l2", Title: "L2 cache warmth counterfactual",
		Paper: "§4 (extension)", Run: runExtHWL2})
	Register(Spec{ID: "ext-hw-tlb", Title: "Tagged-TLB counterfactual for the NT architecture gap",
		Paper: "§5.3 (extension)", Run: runExtHWTLB})
}
