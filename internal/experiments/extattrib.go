// The ext-attrib experiment re-derives the paper's §5.3 attribution
// argument from span data alone. The paper infers from hardware
// counters that TLB misses explain "at least 23-25%" of the latency
// gap between NT 3.51's user-level window server and NT 4.0's
// in-kernel one; ext-hw-tlb already checks that inference with a
// tagged-TLB counterfactual. Here the same crossing-heavy keystroke
// runs under the span recorder, and the gap is decomposed directly:
// every cause's share is read off the episode attributions, no
// counterfactual machine and no counter arithmetic required. The
// counters are kept only as a cross-check that the two attribution
// paths agree cycle for cycle.
package experiments

import (
	"context"
	"fmt"
	"io"

	"latlab/internal/cpu"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/spans"
)

// ExtAttribCell is one persona's span-derived keystroke decomposition:
// warm per-event wall latency and its mean attribution by cause, plus
// the whole-run TLB cycle totals from both attribution paths.
type ExtAttribCell struct {
	Persona string
	// Events is the number of warm episodes averaged (the cold first
	// episode is dropped, as the paper's warm/cold split requires).
	Events int
	// WarmMs is the mean warm episode wall latency (interrupt to the
	// handler's next message-API call), in milliseconds.
	WarmMs float64
	// CauseMs is the mean warm attributed milliseconds per cause.
	CauseMs [spans.NumCauses]float64
	// SpanTLBCycles sums the run's CauseTLBMiss span cycles;
	// CounterTLBCycles is the counter-based equivalent (ITLB + DTLB
	// miss deltas times the machine's refill penalty). The two must
	// agree exactly — same charges, observed two ways.
	SpanTLBCycles    int64
	CounterTLBCycles int64
}

// AttribSum returns the cell's total attributed milliseconds.
func (c ExtAttribCell) AttribSum() float64 {
	var sum float64
	for cause, ms := range c.CauseMs {
		if !spans.Cause(cause).Container() {
			sum += ms
		}
	}
	return sum
}

// ExtAttribResult is the ext-attrib outcome: the two NT personas'
// decompositions on the paper's machine and the span-derived answer to
// §5.3's question — how much of the NT 3.51 − NT 4.0 gap is TLB time.
type ExtAttribResult struct {
	Machine string
	Cells   []ExtAttribCell // NT 3.51 first, NT 4.0 second
	// GapMs is the NT 3.51 − NT 4.0 warm wall-latency gap per event;
	// TLBGapMs is the same difference restricted to tlb-miss time.
	GapMs    float64
	TLBGapMs float64
	// TLBSharePct is 100*TLBGapMs/GapMs — the span-derived version of
	// the paper's "at least 23-25%".
	TLBSharePct float64
}

// attribCell reduces a finished crossKeys run, recorded under the span
// recorder, to a per-cause mean over the warm episodes.
func attribCell(k *keyRun) ExtAttribCell {
	cell := ExtAttribCell{Persona: k.r.sys.P.Name}
	all := spans.Attribution(k.r.rec.Spans())
	cell.SpanTLBCycles = all.Cycles[spans.CauseTLBMiss]
	cell.CounterTLBCycles = (k.delta(cpu.ITLBMisses) + k.delta(cpu.DTLBMisses)) *
		k.r.sys.K.CPU().Penalties.TLBMiss

	eps, _ := spans.Episodes(k.r.rec.Spans())
	if len(eps) < 2 {
		return cell
	}
	warm := eps[1:] // drop the cold trial
	cell.Events = len(warm)
	for _, ep := range warm {
		cell.WarmMs += ep.Duration().Milliseconds()
		for cause, d := range ep.A.Dur {
			cell.CauseMs[cause] += d.Milliseconds()
		}
	}
	n := float64(len(warm))
	cell.WarmMs /= n
	for cause := range cell.CauseMs {
		cell.CauseMs[cause] /= n
	}
	return cell
}

// cellByPersona returns the cell for the named persona, or a zero cell.
func cellByPersona(cells []ExtAttribCell, name string) ExtAttribCell {
	for _, c := range cells {
		if c.Persona == name {
			return c
		}
	}
	return ExtAttribCell{}
}

// ExperimentID implements Result.
func (r *ExtAttribResult) ExperimentID() string { return "ext-attrib" }

// Render implements Result.
func (r *ExtAttribResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Extension (§5.3) — where did the time go? Span-derived attribution on the %s\n", r.Machine)
	fmt.Fprintf(w, "(crossing-heavy keystrokes, warm mean ms/event)\n\n")
	nt351 := cellByPersona(r.Cells, persona.NT351().Name)
	nt40 := cellByPersona(r.Cells, persona.NT40().Name)
	fmt.Fprintf(w, "  %-14s %10s %10s %10s\n", "cause", "NT 3.51", "NT 4.0", "delta")
	for c := spans.Cause(0); c < spans.NumCauses; c++ {
		if c.Container() {
			continue
		}
		a, b := nt351.CauseMs[c], nt40.CauseMs[c]
		if a == 0 && b == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %8.3fms %8.3fms %+8.3fms\n", c.String(), a, b, a-b)
	}
	fmt.Fprintf(w, "  %-14s %8.3fms %8.3fms %+8.3fms\n", "(attributed)", nt351.AttribSum(), nt40.AttribSum(),
		nt351.AttribSum()-nt40.AttribSum())
	fmt.Fprintf(w, "  %-14s %8.3fms %8.3fms %+8.3fms   (%d / %d warm events)\n", "episode wall",
		nt351.WarmMs, nt40.WarmMs, r.GapMs, nt351.Events, nt40.Events)
	fmt.Fprintf(w, "\n  NT 3.51 − NT 4.0 gap: %.3fms/event, of which tlb-miss %.3fms — %.0f%% of the gap\n",
		r.GapMs, r.TLBGapMs, r.TLBSharePct)
	fmt.Fprintf(w, "  paper §5.3: TLB misses are \"at least 23-25%%\" of the difference\n")
	fmt.Fprintf(w, "\n  cross-check vs hardware counters (whole-run TLB refill cycles):\n")
	for _, c := range r.Cells {
		verdict := "agree"
		if c.SpanTLBCycles != c.CounterTLBCycles {
			verdict = "DISAGREE"
		}
		fmt.Fprintf(w, "    %-16s spans %9d = misses × penalty %9d  [%s]\n",
			c.Persona, c.SpanTLBCycles, c.CounterTLBCycles, verdict)
	}
	fmt.Fprintf(w, "\n  The table is read straight off the span log: each keystroke episode\n")
	fmt.Fprintf(w, "  (interrupt → next GetMessage) sums its leaf spans by cause. The gap\n")
	fmt.Fprintf(w, "  between the personas concentrates in tlb-miss time — the refills that\n")
	fmt.Fprintf(w, "  NT 3.51's user-level server manufactures by flushing the untagged TLBs\n")
	fmt.Fprintf(w, "  on every protection-domain crossing — reproducing the paper's counter-\n")
	fmt.Fprintf(w, "  based argument from a direct decomposition instead of an inference.\n")
	return nil
}

func runExtAttrib(ctx context.Context, cfg Config) (Result, error) {
	prof := machine.Pentium100() // the paper's machine, like ext-hw-tlb's base cell
	res := &ExtAttribResult{Machine: prof.Short}
	// The ext-hw-tlb crossing keystrokes, under the span recorder.
	w, body := crossKeys(cfg, "attrib", "attrib-work")
	w.spans = true
	for _, p := range persona.NTs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, paceKeys(cfg, p, prof, w, body, attribCell))
	}
	nt351 := cellByPersona(res.Cells, persona.NT351().Name)
	nt40 := cellByPersona(res.Cells, persona.NT40().Name)
	res.GapMs = nt351.WarmMs - nt40.WarmMs
	res.TLBGapMs = nt351.CauseMs[spans.CauseTLBMiss] - nt40.CauseMs[spans.CauseTLBMiss]
	if res.GapMs != 0 {
		res.TLBSharePct = 100 * res.TLBGapMs / res.GapMs
	}
	return res, nil
}

func init() {
	Register(Spec{ID: "ext-attrib", Title: "Span-derived latency attribution for the NT architecture gap",
		Paper: "§5.3 (extension)", Run: runExtAttrib})
}
