package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
)

// QuarantineSchemaVersion is the quarantine-entry schema. Entries
// declare it like ledger records, so a sidecar written by an
// incompatible engine is detected instead of misread.
const QuarantineSchemaVersion = 1

// Quarantine is one quarantined cell: a cell whose sessions errored,
// panicked, or timed out. The run records it here and moves on instead
// of aborting; `campaign resume` retries it with the same seeds under
// the per-cell retry budget. Entries carry no timestamps so the sidecar
// stays as deterministic as the ledger.
type Quarantine struct {
	// Schema is the entry schema version; must be
	// QuarantineSchemaVersion.
	Schema int `json:"schema"`
	// Campaign is the spec id the cell belongs to.
	Campaign string `json:"campaign"`
	// Scenario, Persona, Machine name the cell's configuration;
	// Faults is its fault-plan variant ("" when the cell ran the
	// template's own block).
	Scenario string `json:"scenario"`
	Persona  string `json:"persona"`
	Machine  string `json:"machine"`
	Faults   string `json:"faults,omitempty"`
	// SeedStart and SeedCount delimit the cell's seed range — the exact
	// seeds a retry re-runs.
	SeedStart uint64 `json:"seed_start"`
	SeedCount int    `json:"seed_count"`
	// Quick records the workload sizing the cell failed under.
	Quick bool `json:"quick,omitempty"`
	// Attempts is the total number of failed attempts so far, across the
	// original run and every resume.
	Attempts int `json:"attempts"`
	// Error is the last attempt's failure.
	Error string `json:"error"`
}

// Cell returns the entry's full cell id, matching Record.Cell and
// Cell.ID.
func (q Quarantine) Cell() string {
	return fmt.Sprintf("%s/%d+%d", configKey(q.Scenario, q.Persona, q.Machine, q.Faults), q.SeedStart, q.SeedCount)
}

// Validate checks a parsed entry's invariants, so a corrupted or
// hand-edited sidecar fails loudly.
func (q Quarantine) Validate() error {
	if q.Schema != QuarantineSchemaVersion {
		return fmt.Errorf("campaign: quarantine schema %d not supported (want %d)", q.Schema, QuarantineSchemaVersion)
	}
	if q.Campaign == "" || q.Scenario == "" || q.Persona == "" || q.Machine == "" {
		return fmt.Errorf("campaign: quarantine entry %s missing configuration fields", q.Cell())
	}
	if q.SeedStart < 1 || q.SeedCount < 1 {
		return fmt.Errorf("campaign: quarantine entry %s has a malformed seed range", q.Cell())
	}
	if q.Attempts < 1 {
		return fmt.Errorf("campaign: quarantine entry %s has no attempts", q.Cell())
	}
	if q.Error == "" {
		return fmt.Errorf("campaign: quarantine entry %s has no error", q.Cell())
	}
	return nil
}

// MarshalQuarantine renders q as one canonical sidecar line (compact
// JSON plus newline), as MarshalRecord renders a ledger line.
func MarshalQuarantine(q Quarantine) ([]byte, error) { return marshalLine(q) }

// AppendQuarantine writes q to w as one sidecar line.
func AppendQuarantine(w io.Writer, q Quarantine) error {
	data, err := MarshalQuarantine(q)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ParseQuarantine parses a quarantine sidecar with the ledger's
// strictness: every line a complete, canonical, schema-valid entry, and
// a final line without its newline rejected as a truncated entry.
// The file is append-only during a run, so the same cell may appear
// repeatedly with increasing attempt counts; the caller collapses with
// LatestQuarantine. An empty sidecar parses to no entries.
func ParseQuarantine(data []byte) ([]Quarantine, error) {
	var out []Quarantine
	s, err := scanLines(bytes.NewReader(data), "quarantine", "entry", func(q Quarantine) error {
		out = append(out, q)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.Tail != nil {
		return nil, fmt.Errorf("campaign: quarantine file ends mid-entry (truncated append?)")
	}
	return out, nil
}

// SalvageQuarantine scans a quarantine sidecar as SalvageLedger scans
// a ledger: the sidecar is appended the same way (one write, then
// fsync), so a torn final entry is the one legal corruption shape and
// any other malformation is an error.
func SalvageQuarantine(r io.Reader) (Salvage, error) {
	return scanLines[Quarantine](r, "quarantine", "entry", nil)
}

// LatestQuarantine collapses an append-only entry stream to the latest
// entry per cell — the one with the freshest attempt count, since
// entries for a cell are only ever appended with growing Attempts.
func LatestQuarantine(entries []Quarantine) map[string]Quarantine {
	out := make(map[string]Quarantine, len(entries))
	for _, q := range entries {
		out[q.Cell()] = q
	}
	return out
}

// QuarantinePath derives the sidecar path from the ledger path:
// ledger.jsonl → ledger.quarantine.jsonl (other extensions just gain
// the suffix).
func QuarantinePath(ledgerPath string) string {
	if strings.HasSuffix(ledgerPath, ".jsonl") {
		return strings.TrimSuffix(ledgerPath, ".jsonl") + ".quarantine.jsonl"
	}
	return ledgerPath + ".quarantine.jsonl"
}

// LoadQuarantine reads and parses the sidecar at path; a missing file
// is an empty quarantine.
func LoadQuarantine(path string) ([]Quarantine, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return ParseQuarantine(data)
}

// WriteQuarantine atomically replaces the sidecar at path with the
// given entries (write to a temp file, fsync, rename), compacting the
// append-only stream; with no entries the sidecar is removed. A crash
// at any point leaves either the old file or the new one, never a torn
// sidecar. The temp file has a random name and mode 0644 less umask,
// the mode the sidecar gets when it is first appended to (os.CreateTemp
// would make it 0600).
func WriteQuarantine(path string, entries []Quarantine) error {
	if len(entries) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("campaign: %w", err)
		}
		return nil
	}
	tmp, err := os.OpenFile(path+".tmp-"+strconv.FormatUint(rand.Uint64(), 36), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, q := range entries {
		if err := AppendQuarantine(tmp, q); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}
