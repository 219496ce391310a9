package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The campaign's files share one strict-JSON rule. A spec is one value
// with no unknown fields and nothing after it. The ledger and the
// quarantine sidecar are append-only JSONL written by the engine alone,
// so each of their lines must also validate and be in the canonical
// form marshalLine writes: a line the engine could not have written is
// corruption, not style.

// decodeStrict decodes data as exactly one JSON value: an unknown field
// or anything but whitespace after the value is an error. noun names
// the value in the trailing-data error.
func decodeStrict[T any](data []byte, noun string) (T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return v, fmt.Errorf("trailing data after %s", noun)
	}
	return v, nil
}

// validator is a value one JSONL line holds: a ledger record or a
// quarantine entry.
type validator interface {
	Validate() error
}

// parseLine decodes one line (without its newline) strictly, validates
// it, and checks that re-marshaling it reproduces the line byte for
// byte.
func parseLine[T validator](raw []byte, noun string) (T, error) {
	v, err := decodeStrict[T](raw, noun)
	if err != nil {
		return v, err
	}
	if err := v.Validate(); err != nil {
		return v, err
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return v, err
	}
	if !bytes.Equal(canon, raw) {
		return v, fmt.Errorf("%s is not in canonical form", noun)
	}
	return v, nil
}

// Salvage is the result of scanning a possibly-torn JSONL file (the
// ledger or the quarantine sidecar): how much of it is intact and what
// hangs off the end.
type Salvage struct {
	// Records counts the valid lines (records or entries) before the
	// tear.
	Records int
	// ValidBytes is the byte offset just past the final valid line —
	// the length to truncate a torn file to.
	ValidBytes int64
	// Tail is the torn final fragment (the bytes of an interrupted
	// append, missing their newline); nil when the file is intact.
	Tail []byte
}

// scanLines reads r one newline-terminated line at a time, so a file
// costs one line of buffer, and passes each parsed line to fn (which
// may be nil). A final fragment without its newline is not parsed: it
// comes back as the Salvage's Tail for the caller to refuse or repair.
// A blank or invalid terminated line is an error naming the file and
// line number; an error from fn stops the scan and is returned as is.
func scanLines[T validator](r io.Reader, file, noun string, fn func(T) error) (Salvage, error) {
	br := bufio.NewReader(r)
	var s Salvage
	n := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(raw) > 0 {
				s.Tail = raw
			}
			return s, nil
		}
		if err != nil {
			return Salvage{}, fmt.Errorf("campaign: %w", err)
		}
		n++
		body := raw[:len(raw)-1]
		if len(bytes.TrimSpace(body)) == 0 {
			return Salvage{}, fmt.Errorf("campaign: %s line %d is blank", file, n)
		}
		v, err := parseLine[T](body, noun)
		if err != nil {
			return Salvage{}, fmt.Errorf("campaign: %s line %d: %w", file, n, err)
		}
		s.Records++
		s.ValidBytes += int64(len(raw))
		if fn != nil {
			if err := fn(v); err != nil {
				return Salvage{}, err
			}
		}
	}
}

// marshalLine renders v as one canonical line: compact JSON plus a
// newline. Field order is fixed by the struct and floats use Go's
// shortest round-trip formatting, so the bytes are deterministic.
func marshalLine(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return append(data, '\n'), nil
}
