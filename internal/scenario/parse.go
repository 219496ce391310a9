package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Parse decodes and validates one scenario document. Decoding is
// strict: unknown fields are an error, so a typo in a hand-written
// document ("maschine") fails loudly instead of being silently
// ignored, and anything but whitespace after the document is rejected.
func Parse(data []byte) (Doc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return Doc{}, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Doc{}, fmt.Errorf("scenario: trailing data after document")
	}
	if err := d.Validate(); err != nil {
		return Doc{}, err
	}
	return d, nil
}

// ParseFile reads and parses the scenario document at path.
func ParseFile(path string) (Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, fmt.Errorf("scenario: %w", err)
	}
	d, err := Parse(data)
	if err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Marshal renders the document as committed-corpus JSON: two-space
// indented, trailing newline, key order fixed by the struct. Marshal
// of a Parse result round-trips byte-identically, which is what keeps
// `-update`-regenerated corpus files diff-clean.
func Marshal(d Doc) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return buf.Bytes(), nil
}
