package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"latlab/internal/stats"
)

// RecordSchemaVersion is the ledger-record schema. Every record
// declares it, so a ledger written by a future incompatible engine is
// detected instead of misread.
const RecordSchemaVersion = 1

// Record is one ledger line: the folded latency distribution of one
// cell (a configuration × seed subrange). Per-event samples are gone
// by the time a record exists — the sketch is the distribution.
type Record struct {
	// Schema is the record schema version; must be RecordSchemaVersion.
	Schema int `json:"schema"`
	// Campaign is the spec id the cell belongs to.
	Campaign string `json:"campaign"`
	// Scenario, Persona, Machine name the cell's configuration;
	// Faults is its fault-plan variant ("" pre-faults-axis, omitted
	// from the JSON so old ledgers stay canonical).
	Scenario string `json:"scenario"`
	Persona  string `json:"persona"`
	Machine  string `json:"machine"`
	Faults   string `json:"faults,omitempty"`
	// SeedStart and SeedCount delimit the cell's contiguous seed range.
	SeedStart uint64 `json:"seed_start"`
	SeedCount int    `json:"seed_count"`
	// Quick records whether the cell ran -quick workload sizing.
	Quick bool `json:"quick,omitempty"`
	// Sessions is the number of sessions folded (== SeedCount on a
	// completed cell); Events the number of event latencies folded.
	Sessions int    `json:"sessions"`
	Events   uint64 `json:"events"`
	// Headline quantiles and jitter (ms), precomputed from the sketch
	// so a ledger is grep-able without re-deriving.
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	MeanMs   float64 `json:"mean_ms"`
	JitterMs float64 `json:"jitter_ms"`
	// Sketch is the cell's full latency distribution, mergeable across
	// cells.
	Sketch *stats.Sketch `json:"sketch"`
	// Perception is the optional perceptual-class block (specs with
	// "perception": true): how the cell's events classify under the
	// default perception calibration, plus a latency sketch per event
	// class. Nil — and absent from the JSON — for every record written
	// before the block existed or without the spec flag, so old ledgers
	// stay canonical byte for byte.
	Perception *PerceptionStats `json:"perception,omitempty"`
}

// PerceptionStats is a record's perceptual-class block: the event count
// per perceptual latency class (internal/perception, Default budgets)
// and one mergeable latency sketch per event class that had any events.
type PerceptionStats struct {
	// Per-perceptual-class event counts; they sum to the record's
	// Events.
	Imperceptible uint64 `json:"imperceptible"`
	Perceptible   uint64 `json:"perceptible"`
	Annoying      uint64 `json:"annoying"`
	Unusable      uint64 `json:"unusable"`
	// Per-event-class latency distributions; a class with no events is
	// nil and absent from the JSON.
	Typing   *stats.Sketch `json:"typing,omitempty"`
	Pointing *stats.Sketch `json:"pointing,omitempty"`
	Command  *stats.Sketch `json:"command,omitempty"`
}

// ClassTotal sums the perceptual-class counters.
func (p *PerceptionStats) ClassTotal() uint64 {
	return p.Imperceptible + p.Perceptible + p.Annoying + p.Unusable
}

// sketchTotal sums the per-event-class sketch counts.
func (p *PerceptionStats) sketchTotal() uint64 {
	var n uint64
	for _, sk := range []*stats.Sketch{p.Typing, p.Pointing, p.Command} {
		if sk != nil {
			n += sk.Count()
		}
	}
	return n
}

// Merge folds o into p: counters add, per-event-class sketches merge
// (adopting o's sketch where p has none for that class).
func (p *PerceptionStats) Merge(o *PerceptionStats) error {
	p.Imperceptible += o.Imperceptible
	p.Perceptible += o.Perceptible
	p.Annoying += o.Annoying
	p.Unusable += o.Unusable
	pair := []struct {
		dst **stats.Sketch
		src *stats.Sketch
	}{{&p.Typing, o.Typing}, {&p.Pointing, o.Pointing}, {&p.Command, o.Command}}
	for _, x := range pair {
		if x.src == nil {
			continue
		}
		if *x.dst == nil {
			adopted := stats.NewSketch(x.src.Alpha())
			*x.dst = adopted
		}
		if err := (*x.dst).Merge(x.src); err != nil {
			return err
		}
	}
	return nil
}

// Config returns the record's configuration key: the cube coordinates
// minus the seed axis.
func (r Record) Config() string {
	return configKey(r.Scenario, r.Persona, r.Machine, r.Faults)
}

// Cell returns the record's full cell id, unique within a campaign.
func (r Record) Cell() string {
	return fmt.Sprintf("%s/%d+%d", r.Config(), r.SeedStart, r.SeedCount)
}

// Validate checks a parsed record's invariants beyond JSON
// well-formedness, so a corrupted or hand-edited ledger fails loudly.
func (r Record) Validate() error {
	if r.Schema != RecordSchemaVersion {
		return fmt.Errorf("campaign: record schema %d not supported (want %d)", r.Schema, RecordSchemaVersion)
	}
	if r.Campaign == "" || r.Scenario == "" || r.Persona == "" || r.Machine == "" {
		return fmt.Errorf("campaign: record %s missing configuration fields", r.Cell())
	}
	if r.SeedStart < 1 || r.SeedCount < 1 {
		return fmt.Errorf("campaign: record %s has a malformed seed range", r.Cell())
	}
	if r.Sessions < 0 || r.Sessions > r.SeedCount {
		return fmt.Errorf("campaign: record %s sessions %d outside seed range", r.Cell(), r.Sessions)
	}
	if r.Sketch == nil {
		return fmt.Errorf("campaign: record %s has no sketch", r.Cell())
	}
	if r.Sketch.Count() != r.Events {
		return fmt.Errorf("campaign: record %s events %d do not match sketch count %d",
			r.Cell(), r.Events, r.Sketch.Count())
	}
	if p := r.Perception; p != nil {
		if got := p.ClassTotal(); got != r.Events {
			return fmt.Errorf("campaign: record %s perception classes total %d, want %d events",
				r.Cell(), got, r.Events)
		}
		if got := p.sketchTotal(); got != r.Events {
			return fmt.Errorf("campaign: record %s perception sketches total %d, want %d events",
				r.Cell(), got, r.Events)
		}
	}
	for name, v := range map[string]float64{
		"p50_ms": r.P50Ms, "p95_ms": r.P95Ms, "p99_ms": r.P99Ms,
		"max_ms": r.MaxMs, "mean_ms": r.MeanMs, "jitter_ms": r.JitterMs,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("campaign: record %s has invalid %s", r.Cell(), name)
		}
	}
	return nil
}

// MarshalRecord renders r as one canonical ledger line (compact JSON
// plus newline); the bytes are deterministic.
func MarshalRecord(r Record) ([]byte, error) { return marshalLine(r) }

// AppendRecord writes r to w as one ledger line.
func AppendRecord(w io.Writer, r Record) error {
	data, err := MarshalRecord(r)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ParseLedger parses an entire JSONL ledger strictly: every line must
// be a complete, schema-valid record with no unknown fields, in
// canonical form (re-marshaling it reproduces the line byte for byte),
// and a final line without its newline is rejected as a truncated
// record (an interrupted append must not pass as a shorter, valid
// ledger). An empty ledger parses to no records.
func ParseLedger(data []byte) ([]Record, error) {
	var out []Record
	err := ScanLedger(bytes.NewReader(data), func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanLedger streams a JSONL ledger one line at a time, calling fn for
// each record, with exactly ParseLedger's strictness — so a
// million-cell ledger costs one line of buffer, not O(file) memory, and
// the caller decides what to retain. If fn returns an error the scan
// stops and returns it.
func ScanLedger(r io.Reader, fn func(Record) error) error {
	s, err := scanLines(r, "ledger", "record", fn)
	if err != nil {
		return err
	}
	if s.Tail != nil {
		return fmt.Errorf("campaign: ledger ends mid-record (truncated append?)")
	}
	return nil
}

// SalvageLedger scans a ledger tolerating the one legal corruption
// shape: a truncated final line from an interrupted append, i.e. bytes
// after the last complete record that never received their terminating
// newline. It returns where the valid prefix ends and the torn tail
// (nil if the ledger is intact). Every other malformation — a
// terminated line that does not parse, a blank line, a non-canonical
// record — is corruption the append-only engine could not have
// produced, and is returned as an error instead.
func SalvageLedger(r io.Reader) (Salvage, error) {
	return scanLines[Record](r, "ledger", "record", nil)
}
