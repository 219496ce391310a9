package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"latlab/internal/scenario"
	"latlab/internal/simtime"
)

// -update rewrites the JSON twins under testdata/scenarios/ from the
// Go-declared documents, so the two can never drift by hand-editing:
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite testdata/scenarios twins from the Go-declared documents")

// twinDir is the committed scenario corpus, shared with latbench's
// -run corpus default.
const twinDir = "../../testdata/scenarios"

// TestScenarioTwinsMatchGoRegistered is the matrix proof behind the
// ext-faults family: each JSON twin parses to exactly the Go-declared
// document, and running the file-compiled spec renders byte-identically
// to the registered experiment, in both quick and full mode.
func TestScenarioTwinsMatchGoRegistered(t *testing.T) {
	for _, doc := range extFaultsDocs() {
		doc := doc
		t.Run(doc.ID, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(twinDir, doc.ID+".json")
			if *update {
				data, err := scenario.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			parsed, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatalf("missing or invalid twin (run `go test ./internal/experiments -update`): %v", err)
			}
			if !reflect.DeepEqual(parsed, doc) {
				t.Fatalf("twin %s drifted from the Go-declared document:\nfile: %+v\ncode: %+v", path, parsed, doc)
			}
			fileSpec, err := FromScenario(parsed)
			if err != nil {
				t.Fatal(err)
			}
			goSpec, ok := ByID(doc.ID)
			if !ok {
				t.Fatalf("%s not registered", doc.ID)
			}
			for _, quick := range []bool{true, false} {
				cfg := Config{Seed: 1996, Quick: quick}
				if testing.Short() && !quick {
					continue
				}
				if got, want := renderOf(t, fileSpec, cfg), renderOf(t, goSpec, cfg); got != want {
					t.Fatalf("quick=%v: file-compiled output differs from registered output (lens %d vs %d)",
						quick, len(got), len(want))
				}
			}
		})
	}
}

// renderOf runs spec under cfg and returns its rendered text.
func renderOf(t *testing.T, spec Spec, cfg Config) string {
	t.Helper()
	res, err := spec.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSeedReaches pins the predicate behind a campaign cell's replay:
// the seed reaches a session through the seeded typist at once, and
// through the fault plan from the first window's start on, that
// instant included.
func TestSeedReaches(t *testing.T) {
	typing := func(input ...scenario.Stanza) scenario.Doc {
		return scenario.Doc{
			Schema: scenario.SchemaVersion, ID: "reach", Title: "reach", Persona: "nt40",
			Workload: scenario.Workload{Kind: scenario.KindTyping, Full: scenario.Params{Chars: 5}},
			Input:    input,
		}
	}
	burst := scenario.Stanza{Type: "keydowns", AtMs: 150, PerKeyMs: 12, Count: 4}
	withFaults := func(d scenario.Doc, fs *scenario.FaultSpec) scenario.Doc {
		d.Faults = fs
		return d
	}
	derived := &scenario.FaultSpec{Kinds: []string{"irq-storm", "timer-jitter"}, SpanS: 10, QuickSpanS: 2}
	explicit := &scenario.FaultSpec{Windows: []scenario.Window{{Kind: "disk-degrade", StartMs: 500, DurationMs: 100, Magnitude: 4}}}
	ppt := scenario.Doc{
		Schema: scenario.SchemaVersion, ID: "reach-ppt", Title: "reach", Persona: "nt40",
		Workload: pptTaskWorkload(),
	}
	cfg := Config{Seed: 7}
	// first is the earliest window start of d's plan under c.
	first := func(d scenario.Doc, c Config) simtime.Time {
		if d.Seed != 0 {
			c.Seed = d.Seed
		}
		return scenarioPlan(d, c).Faults[0].Start
	}
	w := first(withFaults(typing(burst), derived), cfg)
	wq := first(withFaults(typing(burst), derived), Config{Seed: 7, Quick: true})
	ms := func(v float64) simtime.Time { return simtime.Time(simtime.FromMillis(v)) }
	const hour = simtime.Time(3600 * simtime.Second)

	// A pinned seed replaces the run's: find two seeds whose first
	// windows differ, and check the pinned one decides.
	early, late := uint64(1), uint64(2)
	for first(withFaults(typing(burst), derived), Config{Seed: early}) >= first(withFaults(typing(burst), derived), Config{Seed: late}) {
		late++
	}
	pinned := func(seed uint64) scenario.Doc {
		d := withFaults(typing(burst), derived)
		d.Seed = seed
		return d
	}
	wEarly := first(pinned(early), cfg)

	for _, c := range []struct {
		name string
		doc  scenario.Doc
		cfg  Config
		t    simtime.Time
		want bool
	}{
		{"default typist", typing(), cfg, 0, true},
		{"typist stanza", typing(burst, scenario.Stanza{Type: "typist", AtMs: 400, Chars: 3, WPM: 60}), cfg, 0, true},
		{"keydowns, no faults", typing(burst), cfg, hour, false},
		{"powerpoint, no faults", ppt, cfg, hour, false},
		{"default typist reaches whatever the faults", withFaults(typing(), explicit), cfg, 0, true},
		{"window starts at t", withFaults(typing(burst), derived), cfg, w, true},
		{"window starts 1 ns after t", withFaults(typing(burst), derived), cfg, w - 1, false},
		{"quick span at t", withFaults(typing(burst), derived), Config{Seed: 7, Quick: true}, wq, true},
		{"quick span 1 ns after t", withFaults(typing(burst), derived), Config{Seed: 7, Quick: true}, wq - 1, false},
		{"derived windows on powerpoint", withFaults(ppt, derived), cfg, w, true},
		{"explicit window at t", withFaults(typing(burst), explicit), cfg, ms(500), true},
		{"explicit window 1 ns after t", withFaults(typing(burst), explicit), cfg, ms(500) - 1, false},
		{"explicit window on powerpoint", withFaults(ppt, explicit), Config{Seed: 99}, ms(500), true},
		{"pinned seed's window at t", pinned(early), Config{Seed: late}, wEarly, true},
		{"run seed's plan ignored when pinned", pinned(late), Config{Seed: early}, wEarly, false},
		{"unpinned run seed's window after t", withFaults(typing(burst), derived), Config{Seed: late}, wEarly, false},
	} {
		if got := SeedReaches(c.doc, c.cfg, c.t); got != c.want {
			t.Errorf("%s: SeedReaches at %v = %v, want %v", c.name, c.t, got, c.want)
		}
	}
	if w <= ms(1000) || wq > ms(1000) {
		t.Errorf("derived windows start at %v full and %v quick; the cases above need them on either side of 1 s", w, wq)
	}
}
