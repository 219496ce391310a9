package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleQuarantine is a canonical entry for round-trip tests.
func sampleQuarantine() Quarantine {
	return Quarantine{
		Schema:    QuarantineSchemaVersion,
		Campaign:  "mini",
		Scenario:  "tiny-type",
		Persona:   "nt40",
		Machine:   "p100",
		SeedStart: 7,
		SeedCount: 6,
		Quick:     true,
		Attempts:  2,
		Error:     "seed 9: boom",
	}
}

func TestQuarantineRoundTrip(t *testing.T) {
	q := sampleQuarantine()
	data, err := MarshalQuarantine(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseQuarantine(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != q {
		t.Fatalf("round trip: %+v", got)
	}
	// Appending the same bytes again parses as two entries.
	got, err = ParseQuarantine(append(append([]byte{}, data...), data...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d entries, want 2", len(got))
	}
	if q.Cell() != "tiny-type/nt40/p100/7+6" {
		t.Fatalf("cell id %q", q.Cell())
	}
}

func TestParseQuarantineRejects(t *testing.T) {
	valid, err := MarshalQuarantine(sampleQuarantine())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"torn tail", valid[:len(valid)-1], "mid-entry"},
		{"blank line", []byte("\n"), "blank"},
		{"unknown field", []byte(`{"schema":1,"bogus":true}` + "\n"), "bogus"},
		{"bad schema", bytes.Replace(valid, []byte(`"schema":1`), []byte(`"schema":9`), 1), "schema 9"},
		{"no attempts", bytes.Replace(valid, []byte(`"attempts":2`), []byte(`"attempts":0`), 1), "attempts"},
		{"no error", bytes.Replace(valid, []byte(`"seed 9: boom"`), []byte(`""`), 1), "no error"},
		{"non-canonical", bytes.Replace(valid, []byte(`"attempts":2`), []byte(`"attempts": 2`), 1), "canonical"},
		{"trailing data", bytes.Replace(valid, []byte("\n"), []byte(` {}`+"\n"), 1), "trailing"},
		{"bad second line", append(append([]byte{}, valid...), []byte(`{"schema":1}`+"\n")...), "line 2"},
	}
	for _, tc := range cases {
		if _, err := ParseQuarantine(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if got, err := ParseQuarantine(nil); err != nil || got != nil {
		t.Errorf("empty sidecar: %v, %v", got, err)
	}
}

func TestLatestQuarantine(t *testing.T) {
	a := sampleQuarantine()
	b := a
	b.Attempts = 3
	b.Error = "still failing"
	other := a
	other.SeedStart = 100
	latest := LatestQuarantine([]Quarantine{a, other, b})
	if len(latest) != 2 {
		t.Fatalf("%d cells, want 2", len(latest))
	}
	if got := latest[a.Cell()]; got.Attempts != 3 || got.Error != "still failing" {
		t.Fatalf("latest for %s = %+v, want the later entry", a.Cell(), got)
	}
}

func TestQuarantinePath(t *testing.T) {
	if got := QuarantinePath("runs/demo-ledger.jsonl"); got != "runs/demo-ledger.quarantine.jsonl" {
		t.Errorf("QuarantinePath jsonl: %q", got)
	}
	if got := QuarantinePath("ledger.dat"); got != "ledger.dat.quarantine.jsonl" {
		t.Errorf("QuarantinePath other: %q", got)
	}
}

func TestWriteAndLoadQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	// Missing file loads as empty.
	if entries, err := LoadQuarantine(path); err != nil || entries != nil {
		t.Fatalf("missing sidecar: %v, %v", entries, err)
	}
	a := sampleQuarantine()
	b := a
	b.SeedStart = 13
	if err := WriteQuarantine(path, []Quarantine{a, b}); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0] != a || entries[1] != b {
		t.Fatalf("loaded %+v", entries)
	}
	// No leftover temp files from the atomic write.
	dir, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 {
		t.Fatalf("%d files in sidecar dir, want 1", len(dir))
	}
	// Writing an empty set removes the sidecar.
	if err := WriteQuarantine(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("empty WriteQuarantine must remove the sidecar")
	}
	// Removing an already-missing sidecar is fine.
	if err := WriteQuarantine(path, nil); err != nil {
		t.Fatal(err)
	}
}

// A compacted sidecar replaces one the CLI appended to, so it must keep
// that file's mode (0644 less umask), not os.CreateTemp's 0600.
func TestWriteQuarantineModeMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.jsonl")
	if err := WriteQuarantine(path, []Quarantine{sampleQuarantine()}); err != nil {
		t.Fatal(err)
	}
	// The way cmd/campaign opens the sidecar to append to it.
	f, err := os.OpenFile(filepath.Join(dir, "appended.jsonl"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("compacted sidecar mode %v, want %v (as an appended one)", got.Mode(), want.Mode())
	}
}

// FuzzParseQuarantine mirrors FuzzParseLedger: whatever the input, the
// parser must never panic, and accepted entries must round-trip to the
// canonical bytes.
func FuzzParseQuarantine(f *testing.F) {
	valid, err := MarshalQuarantine(sampleQuarantine())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""))
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add(valid[:len(valid)-1]) // torn tail
	f.Add(valid[:len(valid)/2]) // torn mid-entry
	f.Add([]byte("{}\n"))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseQuarantine(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		for _, q := range entries {
			if err := q.Validate(); err != nil {
				t.Fatalf("accepted entry fails Validate: %v", err)
			}
			if err := AppendQuarantine(&out, q); err != nil {
				t.Fatal(err)
			}
		}
		if len(entries) > 0 && !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted sidecar is not canonical:\n in: %q\nout: %q", data, out.Bytes())
		}
	})
}
