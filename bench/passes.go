package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"latlab/internal/campaign"
	"latlab/internal/experiments"
	"latlab/internal/kernel"
	"latlab/internal/machine"
	"latlab/internal/runner"
)

// batch is the machines-per-worker wave size, cmd/campaign's default.
const batch = 8

// suiteSeed is latbench's default seed; the goldens hold at it.
const suiteSeed = 1996

// workload is one set of inputs the benchmark measures.
type workload struct {
	name string
	// spec is the campaign spec a campaign workload runs; empty selects
	// the latbench quick suite.
	spec  string
	quick bool
	// ref holds what a seed-0 pass must reproduce: a committed ledger
	// (.jsonl), pinned per-record SHA-256 digests (.sha256), or the
	// latbench golden directory.
	ref string
}

// workloads lists every workload in round-robin order. README.md and
// BENCHMARK.json record why each was chosen.
var workloads = []workload{
	{name: "campaign-short", spec: "testdata/campaigns/demo.json", quick: true, ref: "testdata/campaigns/demo-ledger.jsonl"},
	{name: "campaign-long", spec: "bench/workloads/campaign-long.json", ref: "bench/workloads/campaign-long.sha256"},
	{name: "campaign-modern", spec: "bench/workloads/campaign-modern.json", ref: "bench/workloads/campaign-modern.sha256"},
	{name: "suite-quick", quick: true, ref: "cmd/latbench/testdata/golden"},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pass is a set-up workload, ready to run passes.
type pass interface {
	// run executes one pass with its ledger or renderings under dir,
	// traced when traced is set, and checks the outputs. Only the pass
	// itself is timed, never the check.
	run(ctx context.Context, dir string, traced bool) (outcome, error)
}

// outcome is what one pass produced. An operation is a campaign cell or
// a suite experiment.
type outcome struct {
	wall time.Duration
	// ids names each attempted operation; digests holds the SHA-256 of
	// its output ("" when it produced none).
	ids     []string
	digests []string
	// failed indexes the operations that failed: errored, panicked,
	// quarantined, or differing from the reference.
	failed []int
	errs   []string
	// opMs is each suite experiment's RunRecord.WallSeconds, in ms.
	opMs map[string]float64
	// trace and layers are set on a traced pass.
	trace  *tracer
	layers map[string]float64
}

// check marks every operation without output, or whose output differs
// from ref, as failed. A nil ref (a seed with no pinned reference)
// checks only that each operation produced output.
func (o *outcome) check(ref map[string]string) {
	for i, id := range o.ids {
		switch d := o.digests[i]; {
		case d == "":
			o.failed = append(o.failed, i)
		case ref != nil && ref[id] != d:
			o.failed = append(o.failed, i)
			o.errs = append(o.errs, id+": output differs from the reference")
		}
	}
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newPass sets a workload up: parses its inputs, expands its cells, loads
// the reference (seed 0 only), and with warm set runs one untimed
// warm-up. seed shifts every campaign's seeds.start and the suite seed.
func newPass(ctx context.Context, w workload, seed uint64, warm bool) (pass, error) {
	if w.spec == "" {
		return newSuitePass(ctx, w, seed, warm)
	}
	return newCampaignPass(ctx, w, seed, warm)
}

// campaignPass runs a campaign exactly as `campaign run` does.
type campaignPass struct {
	c     *campaign.Campaign
	cells []campaign.Cell
	opt   campaign.Options
	ref   map[string]string
}

func newCampaignPass(ctx context.Context, w workload, seed uint64, warm bool) (*campaignPass, error) {
	c, err := campaign.LoadSpec(w.spec)
	if err != nil {
		return nil, err
	}
	start := c.Spec.Seeds.Start + seed
	if start < c.Spec.Seeds.Start {
		return nil, fmt.Errorf("%s: seed %d overflows seeds.start", w.name, seed)
	}
	c.Spec.Seeds.Start = start
	p := &campaignPass{
		c:     c,
		cells: campaign.Cells(c),
		opt: campaign.Options{
			Jobs:   runtime.NumCPU(),
			Quick:  w.quick,
			Engine: kernel.BatchedEngine(),
			Batch:  batch,
		},
	}
	if seed == 0 {
		if p.ref, err = loadLedgerRef(w.ref); err != nil {
			return nil, err
		}
	}
	if warm {
		cell := p.cells[0]
		cell.SeedCount = min(cell.SeedCount, batch)
		sum, err := campaign.RunCells(ctx, c, []campaign.Cell{cell}, p.opt,
			func(campaign.Record) error { return nil })
		if err == nil && len(sum.Quarantined) > 0 {
			err = errors.New(sum.Quarantined[0].Error)
		}
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	return p, nil
}

func (p *campaignPass) run(ctx context.Context, dir string, traced bool) (outcome, error) {
	path := filepath.Join(dir, "ledger.jsonl")
	lf, err := os.Create(path)
	if err != nil {
		return outcome{}, err
	}
	defer lf.Close()
	var o outcome
	var n counts
	start := time.Now()
	if traced {
		o.trace = newTracer(min(p.opt.Jobs, len(p.cells)))
		n, o.errs, err = p.replica(ctx, o.trace, lf)
		if err == nil {
			// The workers are idle once the runner returns; the sync is
			// the tail of the first one's time.
			sp := o.trace.begin("campaign.ledger", "sync", 1)
			err = lf.Sync()
			o.trace.end(sp)
		}
		o.trace.finish()
	} else {
		var sum campaign.Summary
		sum, err = campaign.RunCells(ctx, p.c, p.cells, p.opt,
			func(r campaign.Record) error { return campaign.AppendRecord(lf, r) })
		if err == nil {
			err = lf.Sync()
		}
		for _, q := range sum.Quarantined {
			o.errs = append(o.errs, q.Cell()+": quarantined: "+firstLine(q.Error))
		}
	}
	o.wall = time.Since(start)
	if err != nil {
		return o, err
	}
	if err := lf.Close(); err != nil {
		return o, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return o, err
	}
	ids, digests, errs := ledgerDigests(p.cells, data)
	o.ids, o.digests, o.errs = ids, digests, append(o.errs, errs...)
	o.check(p.ref)
	if traced {
		o.layers = campaignLayers(o.trace, n)
	}
	return o, nil
}

// ledgerDigests returns each cell's record digest from a pass's ledger,
// "" for a cell whose record is missing or out of order.
func ledgerDigests(cells []campaign.Cell, data []byte) (ids, digests, errs []string) {
	digests = make([]string, len(cells))
	for _, c := range cells {
		ids = append(ids, c.ID())
	}
	recs, err := campaign.ParseLedger(data)
	if err != nil {
		return ids, digests, []string{"ledger: " + err.Error()}
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	j := 0
	for i, id := range ids {
		if j < len(recs) && recs[j].Cell() == id {
			digests[i] = digest(lines[j])
			j++
			continue
		}
		errs = append(errs, id+": no record in the ledger")
	}
	if j < len(recs) {
		errs = append(errs, fmt.Sprintf("ledger: %d records out of order or unexpected", len(recs)-j))
	}
	return ids, digests, errs
}

// loadLedgerRef reads a campaign reference: a committed ledger, whose
// lines are hashed, or a .sha256 file of "<digest>  <cell id>" lines.
func loadLedgerRef(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ref := map[string]string{}
	if strings.HasSuffix(path, ".jsonl") {
		recs, err := campaign.ParseLedger(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for i, line := range bytes.SplitAfter(data, []byte("\n"))[:len(recs)] {
			ref[recs[i].Cell()] = digest(line)
		}
		return ref, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, id, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		ref[id] = sum
	}
	return ref, sc.Err()
}

// suitePass runs the latbench quick suite: every registered experiment,
// reference engine, machine p100, rendered as `latbench -quick` renders.
type suitePass struct {
	specs []experiments.Spec
	opt   runner.Options
	ref   map[string]string
}

func newSuitePass(ctx context.Context, w workload, seed uint64, warm bool) (*suitePass, error) {
	prof, _ := machine.ByShort("p100")
	p := &suitePass{
		specs: experiments.All(),
		opt: runner.Options{
			Jobs:   runtime.NumCPU(),
			Config: experiments.Config{Seed: suiteSeed + seed, Quick: w.quick, Machine: prof},
		},
	}
	if seed == 0 {
		p.ref = map[string]string{}
		for _, s := range p.specs {
			golden, err := os.ReadFile(filepath.Join(w.ref, s.ID+".txt"))
			if err != nil {
				return nil, err
			}
			p.ref[s.ID] = digest(golden)
		}
	}
	if warm {
		fig1, _ := experiments.ByID("fig1")
		_, err := runner.Run(ctx, []experiments.Spec{fig1}, p.opt, func(out runner.Outcome) error {
			if out.Record.Failed() {
				return errors.New(firstLine(out.Record.Error))
			}
			return render(io.Discard, out)
		})
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	return p, nil
}

// render writes an experiment's rendering plus the trailer latbench
// appends, which is what a golden file holds.
func render(w io.Writer, out runner.Outcome) error {
	if err := out.Result.Render(w); err != nil {
		return fmt.Errorf("rendering %s: %w", out.Spec.ID, err)
	}
	_, err := fmt.Fprintf(w, "\n[%s: %s — reproduces %s]\n", out.Spec.ID, out.Spec.Title, out.Spec.Paper)
	return err
}

func (p *suitePass) run(ctx context.Context, _ string, traced bool) (outcome, error) {
	var o outcome
	specs := p.specs
	start := time.Now()
	if traced {
		o.trace = newTracer(min(p.opt.Jobs, len(specs)))
		specs = o.trace.wrapSpecs(specs)
	}
	bufs := make([]bytes.Buffer, len(specs))
	next := 0
	man, err := runner.Run(ctx, specs, p.opt, func(out runner.Outcome) error {
		i := next
		next++
		if out.Record.Failed() {
			return nil
		}
		if traced {
			sp := o.trace.begin("experiments.render", out.Spec.ID, 0)
			defer o.trace.end(sp)
		}
		return render(&bufs[i], out)
	})
	if traced {
		o.trace.finish()
	}
	o.wall = time.Since(start)
	if err != nil {
		return o, err
	}
	o.opMs = map[string]float64{}
	for i, rec := range man.Records {
		o.ids = append(o.ids, rec.ID)
		if rec.Failed() {
			o.digests = append(o.digests, "")
			o.errs = append(o.errs, rec.ID+": "+firstLine(rec.Error))
			continue
		}
		o.digests = append(o.digests, digest(bufs[i].Bytes()))
		o.opMs[rec.ID] = rec.WallSeconds * 1e3
	}
	o.check(p.ref)
	if traced {
		o.layers = suiteLayers(o.trace)
	}
	return o, nil
}

// firstLine trims a multi-line error (panics carry stacks).
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
