package scenario

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// validDoc is a minimal document that passes Validate; tests mutate
// copies of it to probe one rule at a time.
func validDoc() Doc {
	return Doc{
		Schema:  SchemaVersion,
		ID:      "test-doc",
		Title:   "a test document",
		Persona: "nt40",
		Workload: Workload{
			Kind: KindTyping,
			Full: Params{Chars: 40},
		},
	}
}

func TestValidateAcceptsMinimalDoc(t *testing.T) {
	if err := validDoc().Validate(); err != nil {
		t.Fatalf("minimal doc should validate: %v", err)
	}
}

// TestValidateRejections drives each grammar rule to its error and
// checks the message carries enough to fix the document.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Doc)
		wantSub string
	}{
		{"schema", func(d *Doc) { d.Schema = 2 }, "schema 2 not supported"},
		{"id-shape", func(d *Doc) { d.ID = "Bad_ID" }, "not a slug"},
		{"no-title", func(d *Doc) { d.Title = "" }, "missing title"},
		{"persona", func(d *Doc) { d.Persona = "os2" }, `unknown persona "os2"`},
		{"machine", func(d *Doc) { d.Machine = "p999" }, `unknown machine "p999"`},
		{"workload-kind", func(d *Doc) { d.Workload.Kind = "spreadsheet" }, "unknown workload kind"},
		{"typing-chars", func(d *Doc) { d.Workload.Full.Chars = 0 }, "chars must be positive"},
		{"quick-validated", func(d *Doc) { d.Workload.Quick = &Params{} }, "chars must be positive"},
		{"negative-param", func(d *Doc) { d.Workload.Full.WPM = -1 }, "negative wpm"},
		{"browse-views", func(d *Doc) {
			d.Workload = Workload{Kind: KindBrowse, Full: Params{}}
		}, "views must be positive"},
		{"input-kind", func(d *Doc) {
			d.Workload = Workload{Kind: KindBrowse, Full: Params{Views: 4}}
			d.Input = []Stanza{{Type: "click", AtMs: 100}}
		}, "require the typing workload"},
		{"stanza-type", func(d *Doc) {
			d.Input = []Stanza{{Type: "drag", AtMs: 100}}
		}, `unknown stanza type "drag"`},
		{"stanza-typist", func(d *Doc) {
			d.Input = []Stanza{{Type: "typist", AtMs: 100}}
		}, "positive chars and wpm"},
		{"stanza-keydowns", func(d *Doc) {
			d.Input = []Stanza{{Type: "keydowns", AtMs: 100}}
		}, "positive count"},
		{"stanza-negative-time", func(d *Doc) {
			d.Input = []Stanza{{Type: "click", AtMs: -1}}
		}, "negative time"},
		{"faults-both", func(d *Doc) {
			d.Faults = &FaultSpec{Kinds: []string{"irq-storm"}, SpanS: 10,
				Windows: []Window{{Kind: "irq-storm", StartMs: 0, DurationMs: 1}}}
		}, "mutually exclusive"},
		{"faults-empty", func(d *Doc) { d.Faults = &FaultSpec{} }, "schedules nothing"},
		{"faults-span", func(d *Doc) {
			d.Faults = &FaultSpec{Kinds: []string{"irq-storm"}}
		}, "positive span_s"},
		{"faults-kind", func(d *Doc) {
			d.Faults = &FaultSpec{Kinds: []string{"gamma-rays"}, SpanS: 10}
		}, `unknown fault kind "gamma-rays"`},
		{"window-kind", func(d *Doc) {
			d.Faults = &FaultSpec{Windows: []Window{{Kind: "gamma-rays", DurationMs: 1}}}
		}, `unknown fault kind "gamma-rays"`},
		{"window-shape", func(d *Doc) {
			d.Faults = &FaultSpec{Windows: []Window{{Kind: "irq-storm", DurationMs: 0}}}
		}, "malformed window"},
		{"compare-label", func(d *Doc) { d.Compare = []Row{{}} }, "no label"},
		{"compare-dup", func(d *Doc) {
			d.Compare = []Row{{Label: "a"}, {Label: "a"}}
		}, "duplicate compare label"},
		{"compare-unfaultable", func(d *Doc) {
			d.Compare = []Row{{Label: "clean"}, {Label: "hurt", Faulted: true}}
		}, "no faults are declared"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validDoc()
			tc.mutate(&d)
			err := d.Validate()
			if err == nil {
				t.Fatalf("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseStrict(t *testing.T) {
	good, err := Marshal(validDoc())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(good); err != nil {
		t.Fatalf("valid document should parse: %v", err)
	}

	typo := bytes.Replace(good, []byte(`"persona"`), []byte(`"maschine"`), 1)
	if _, err := Parse(typo); err == nil || !strings.Contains(err.Error(), "maschine") {
		t.Fatalf("unknown field should fail loudly, got %v", err)
	}

	trailing := append(append([]byte{}, good...), []byte("{}")...)
	if _, err := Parse(trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data should be rejected, got %v", err)
	}

	if _, err := Parse([]byte("{")); err == nil {
		t.Fatal("truncated JSON should be rejected")
	}

	if _, err := Parse([]byte("{}")); err == nil {
		t.Fatal("empty document should fail validation")
	}
}

// TestParseTrailingData pins what may follow a document: whitespace,
// and nothing else. A closing bracket or brace, or a stray word, after
// a committed corpus document is an error, and so is a second document.
func TestParseTrailingData(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/scenarios/ext-faults-disk.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		suffix string
		ok     bool
	}{
		{"", true},
		{"\n", true},
		{"   \t\n  ", true},
		{"}", false},
		{"]", false},
		{" xyz", false},
		{"{}", false},
	} {
		_, err := Parse(append(append([]byte{}, doc...), c.suffix...))
		if c.ok && err != nil {
			t.Errorf("suffix %q: %v, want the document to parse", c.suffix, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Errorf("suffix %q: error %v, want trailing data rejected", c.suffix, err)
		}
	}
}

// TestMarshalRoundTrip locks the corpus-file contract: Marshal → Parse
// → Marshal is byte-identical, so -update regeneration stays
// diff-clean.
func TestMarshalRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		d := Generate(seed, Constraints{})
		data, err := Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(data)
		if err != nil {
			t.Fatalf("seed %d: generated document does not re-parse: %v\n%s", seed, err, data)
		}
		if !reflect.DeepEqual(parsed, d) {
			t.Fatalf("seed %d: parse(marshal(d)) != d:\nin:  %+v\nout: %+v", seed, d, parsed)
		}
		again, err := Marshal(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: marshal is not stable under round-trip", seed)
		}
	}
}
