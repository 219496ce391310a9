// Package campaign turns single latbench runs into population-scale
// latency surfaces: a campaign spec expands a persona × machine ×
// scenario × seed cube into thousands-to-millions of seeded sessions,
// shards them across workers on top of internal/runner, and folds each
// session's event latencies into mergeable streaming sketches
// (stats.Sketch), so memory stays flat at any population size — the
// product is a distribution per configuration, never a retained sample
// set.
//
// Results persist to an append-only, schema-versioned JSONL ledger
// (one Record per cell: configuration, seed range, sketch
// serialization, p50/p95/p99, jitter) that Analyze replays to rank
// configurations and propose refined follow-up cells. cmd/campaign is
// the CLI (`campaign run`, `campaign analyze`).
//
// Determinism contract: a campaign's ledger — and therefore its
// analysis — is byte-identical for a given spec, mode, and seed range
// regardless of the worker count. Cells are the sharding unit, each
// cell folds its sessions sequentially in seed order, and records are
// emitted in cell-expansion order through the runner's reorder buffer,
// so no float ever crosses a scheduling boundary.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"latlab/internal/faults"
	"latlab/internal/machine"
	"latlab/internal/persona"
	"latlab/internal/scenario"
)

// SpecSchemaVersion is the campaign-spec schema this package parses.
// Specs must declare it explicitly, like scenario documents.
const SpecSchemaVersion = 1

// Spec is one parsed campaign specification: the axes of the sweep
// cube and the seed range every configuration is swept over.
type Spec struct {
	// Schema is the spec schema version; must be SpecSchemaVersion.
	Schema int `json:"schema"`
	// ID is the campaign id (slug), recorded in every ledger record.
	ID string `json:"id"`
	// Title is the one-line description shown by analyze.
	Title string `json:"title"`
	// Personas lists the OS personality short names to sweep.
	Personas []string `json:"personas,omitempty"`
	// Machines lists the hardware-profile short names to sweep.
	Machines []string `json:"machines,omitempty"`
	// Faults lists fault-plan variants to sweep: "none" (strip the
	// template's fault block — a clean machine) or a fault kind name
	// (faults.KindNames — derive that kind's windows from each session
	// seed over the template's fault span, or the package default span
	// when the template pins none). An absent axis keeps the template's
	// own fault block, which is also what the variant "" means in
	// explicit cells.
	Faults []string `json:"faults,omitempty"`
	// Scenarios lists scenario-document paths, relative to the spec
	// file. Each must be a single-run document (no compare rows); its
	// persona, machine, and seed are overridden per cell.
	Scenarios []string `json:"scenarios"`
	// Seeds is the seed range swept per configuration and its cell
	// granularity. (omitzero needs a Go ≥ 1.24 toolchain; older ones
	// emit explicit zeros, which cell-list validation also accepts.)
	Seeds SeedBlock `json:"seeds,omitzero"`
	// Cells, when non-empty, switches the spec from a cube sweep to an
	// explicit cell list: exactly these configuration × seed-range cells
	// run, in this order. Mutually exclusive with Personas/Machines/
	// Seeds (Scenarios still lists the referenced documents). This is
	// the form `campaign analyze -emit-spec` writes, so suggested_next
	// round-trips into a runnable spec.
	Cells []CellRef `json:"cells,omitempty"`
	// Perception, when true, additionally folds every event into
	// per-perceptual-class counters and per-event-class sketches
	// (internal/perception, Default calibration) and records them in each
	// ledger cell's optional perception block. Off by default: the flag
	// changes the ledger bytes, so pre-existing specs and their committed
	// ledgers are untouched.
	Perception bool `json:"perception,omitempty"`
	// Notes is free-form provenance.
	Notes string `json:"notes,omitempty"`
}

// CellRef names one explicit cell of a cell-list spec. Scenario is the
// scenario document's id (which must resolve to one of the spec's
// Scenarios entries), not its path.
type CellRef struct {
	// Scenario, Persona, Machine name the configuration.
	Scenario string `json:"scenario"`
	Persona  string `json:"persona"`
	Machine  string `json:"machine"`
	// Faults is the fault-plan variant ("" = the template's own block).
	Faults string `json:"faults,omitempty"`
	// SeedStart and SeedCount delimit the cell's seed range.
	SeedStart uint64 `json:"seed_start"`
	SeedCount int    `json:"seed_count"`
}

// ID returns the cell id the ref expands to, matching Cell.ID.
func (c CellRef) ID() string {
	return fmt.Sprintf("%s/%d+%d", configKey(c.Scenario, c.Persona, c.Machine, c.Faults), c.SeedStart, c.SeedCount)
}

// configKey builds the configuration key shared by cell ids, ledger
// records, and analyze groupings. The faults segment appears only when
// a variant is set, so pre-faults-axis ids are unchanged.
func configKey(scenario, persona, machine, faults string) string {
	key := scenario + "/" + persona + "/" + machine
	if faults != "" {
		key += "/" + faults
	}
	return key
}

// SeedBlock sizes the seed axis of the cube.
type SeedBlock struct {
	// Start is the first session seed (>= 1; seed 0 means "inherit" in
	// scenario documents, so it cannot name a session).
	Start uint64 `json:"start"`
	// Count is the number of consecutive seeds swept per configuration.
	Count int `json:"count"`
	// PerCell is the cell granularity: each configuration's seed range
	// is chunked into cells of this many seeds (the last cell may be
	// smaller). Cells are the sharding and ledger unit.
	PerCell int `json:"per_cell"`
}

// Sessions returns the total session count of the cube (or of the
// explicit cell list).
func (s Spec) Sessions() int {
	if len(s.Cells) > 0 {
		n := 0
		for _, c := range s.Cells {
			n += c.SeedCount
		}
		return n
	}
	n := len(s.Scenarios) * len(s.Personas) * len(s.Machines) * s.Seeds.Count
	if len(s.Faults) > 0 {
		n *= len(s.Faults)
	}
	return n
}

// specIDPattern mirrors the scenario slug grammar.
var specIDPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate checks the spec against the grammar, phrasing each error
// with the valid alternatives so a hand-written spec is fixable from
// the message alone.
func (s Spec) Validate() error {
	if s.Schema != SpecSchemaVersion {
		return fmt.Errorf("campaign: schema %d not supported (want %d)", s.Schema, SpecSchemaVersion)
	}
	if !specIDPattern.MatchString(s.ID) {
		return fmt.Errorf("campaign: id %q is not a slug (lowercase letters, digits, dashes)", s.ID)
	}
	if s.Title == "" {
		return fmt.Errorf("campaign %s: missing title", s.ID)
	}
	if len(s.Cells) > 0 {
		return s.validateCells()
	}
	if len(s.Personas) == 0 {
		return fmt.Errorf("campaign %s: no personas", s.ID)
	}
	seen := map[string]bool{}
	for _, p := range s.Personas {
		if _, ok := persona.ByShort(p); !ok {
			return fmt.Errorf("campaign %s: unknown persona %q (valid: %s)",
				s.ID, p, strings.Join(persona.Shorts(), ", "))
		}
		if seen["p:"+p] {
			return fmt.Errorf("campaign %s: duplicate persona %q", s.ID, p)
		}
		seen["p:"+p] = true
	}
	if len(s.Machines) == 0 {
		return fmt.Errorf("campaign %s: no machines", s.ID)
	}
	for _, m := range s.Machines {
		if _, ok := machine.ByShort(m); !ok {
			return fmt.Errorf("campaign %s: unknown machine %q (valid: %s)",
				s.ID, m, strings.Join(machine.Shorts(), ", "))
		}
		if seen["m:"+m] {
			return fmt.Errorf("campaign %s: duplicate machine %q", s.ID, m)
		}
		seen["m:"+m] = true
	}
	for _, f := range s.Faults {
		if f == "" {
			return fmt.Errorf("campaign %s: empty fault variant (omit the faults axis to keep the template's block)", s.ID)
		}
		if err := validFaultVariant(f); err != nil {
			return fmt.Errorf("campaign %s: %w", s.ID, err)
		}
		if seen["f:"+f] {
			return fmt.Errorf("campaign %s: duplicate fault variant %q", s.ID, f)
		}
		seen["f:"+f] = true
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("campaign %s: no scenarios", s.ID)
	}
	if s.Seeds.Start < 1 {
		return fmt.Errorf("campaign %s: seeds.start must be >= 1 (seed 0 means \"inherit\" in scenario documents)", s.ID)
	}
	if s.Seeds.Count < 1 {
		return fmt.Errorf("campaign %s: seeds.count must be positive", s.ID)
	}
	if s.Seeds.PerCell < 1 || s.Seeds.PerCell > s.Seeds.Count {
		return fmt.Errorf("campaign %s: seeds.per_cell must be in [1, seeds.count]", s.ID)
	}
	return nil
}

// validateCells checks the explicit-cell-list form of a spec: no cube
// axes alongside it, every referenced persona and machine valid, sane
// seed ranges, and no duplicate cells.
func (s Spec) validateCells() error {
	if len(s.Personas) > 0 || len(s.Machines) > 0 || len(s.Faults) > 0 || s.Seeds != (SeedBlock{}) {
		return fmt.Errorf("campaign %s: cells and cube axes (personas/machines/faults/seeds) are mutually exclusive", s.ID)
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("campaign %s: no scenarios", s.ID)
	}
	seen := map[string]bool{}
	for i, c := range s.Cells {
		if c.Scenario == "" {
			return fmt.Errorf("campaign %s: cell %d has no scenario id", s.ID, i)
		}
		if _, ok := persona.ByShort(c.Persona); !ok {
			return fmt.Errorf("campaign %s: cell %d: unknown persona %q (valid: %s)",
				s.ID, i, c.Persona, strings.Join(persona.Shorts(), ", "))
		}
		if _, ok := machine.ByShort(c.Machine); !ok {
			return fmt.Errorf("campaign %s: cell %d: unknown machine %q (valid: %s)",
				s.ID, i, c.Machine, strings.Join(machine.Shorts(), ", "))
		}
		if c.Faults != "" {
			if err := validFaultVariant(c.Faults); err != nil {
				return fmt.Errorf("campaign %s: cell %d: %w", s.ID, i, err)
			}
		}
		if c.SeedStart < 1 {
			return fmt.Errorf("campaign %s: cell %d: seed_start must be >= 1", s.ID, i)
		}
		if c.SeedCount < 1 {
			return fmt.Errorf("campaign %s: cell %d: seed_count must be positive", s.ID, i)
		}
		if seen[c.ID()] {
			return fmt.Errorf("campaign %s: duplicate cell %s", s.ID, c.ID())
		}
		seen[c.ID()] = true
	}
	return nil
}

// FaultNone is the fault-axis variant that strips the scenario
// template's fault block: the cell runs on a clean machine.
const FaultNone = "none"

// validFaultVariant checks one fault-axis value: FaultNone or a fault
// kind name.
func validFaultVariant(v string) error {
	if v == FaultNone {
		return nil
	}
	if _, ok := faults.KindByName(v); !ok {
		return fmt.Errorf("unknown fault variant %q (valid: %s, %s)",
			v, FaultNone, strings.Join(faults.KindNames(), ", "))
	}
	return nil
}

// ParseSpec decodes and validates a campaign spec. Decoding is strict
// (decodeStrict): unknown fields and trailing data are errors.
func ParseSpec(data []byte) (Spec, error) {
	s, err := decodeStrict[Spec](data, "spec")
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MarshalSpec renders a spec as a deterministic, parseable campaign
// file: indented JSON in struct field order plus a trailing newline —
// the form `campaign analyze -emit-spec` writes.
func MarshalSpec(s Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return append(data, '\n'), nil
}

// Campaign is a loaded spec with its scenario templates resolved: the
// runnable form Run consumes.
type Campaign struct {
	Spec Spec
	// Docs holds the parsed scenario templates, parallel to
	// Spec.Scenarios.
	Docs []scenario.Doc
}

// LoadSpec reads the campaign spec at path and resolves its scenario
// documents (relative to the spec file). Each template must be a
// single-run scenario — a campaign measures one distribution per
// configuration, so compare rows are rejected — and template ids must
// be unique, since they name configurations in the ledger.
func LoadSpec(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c := &Campaign{Spec: spec}
	dir := filepath.Dir(path)
	ids := map[string]bool{}
	for _, rel := range spec.Scenarios {
		doc, err := scenario.ParseFile(filepath.Join(dir, rel))
		if err != nil {
			return nil, err
		}
		if len(doc.Compare) > 0 {
			return nil, fmt.Errorf("campaign %s: scenario %s has compare rows; campaigns need single-run documents", spec.ID, doc.ID)
		}
		if ids[doc.ID] {
			return nil, fmt.Errorf("campaign %s: duplicate scenario id %q", spec.ID, doc.ID)
		}
		ids[doc.ID] = true
		c.Docs = append(c.Docs, doc)
	}
	// In cell-list mode every cell's scenario id must name one of the
	// resolved documents — only checkable now that the docs are loaded.
	for i, cell := range spec.Cells {
		if !ids[cell.Scenario] {
			return nil, fmt.Errorf("campaign %s: cell %d references scenario id %q, not the id of any listed document", spec.ID, i, cell.Scenario)
		}
	}
	return c, nil
}
