package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"latlab/internal/core"
	"latlab/internal/scenario"
)

// singleRunDocs returns every single-run scenario a session can open
// that the repository commits: the scenario corpus and the campaign
// templates (the demo's two and the engine tests' mini campaign's).
func singleRunDocs(t *testing.T) []scenario.Doc {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(twinDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths,
		"../../testdata/campaigns/demo-type.json",
		"../../testdata/campaigns/demo-storm.json",
		"../campaign/testdata/tiny-type.json")
	var docs []scenario.Doc
	for _, path := range paths {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(doc.Compare) == 0 {
			docs = append(docs, doc)
		}
	}
	if len(docs) < 9 {
		t.Fatalf("found %d single-run documents, want the corpus's six and three templates", len(docs))
	}
	return docs
}

// openDriven opens doc under cfg and drives it to the end of its
// program, leaving it open.
func openDriven(t *testing.T, cfg Config, doc scenario.Doc) *ScenarioSession {
	t.Helper()
	s, err := OpenScenarioSession(cfg, doc)
	if err != nil {
		t.Fatalf("%s: %v", doc.ID, err)
	}
	s.Drive()
	return s
}

// TestEventsMatchResult pins the ledger path: for every single-run
// document, in quick and full mode, a session read with Events returns
// exactly the events a session of the same document reports in
// Result().Row.Report.Events.
func TestEventsMatchResult(t *testing.T) {
	for _, doc := range singleRunDocs(t) {
		for _, quick := range []bool{true, false} {
			cfg := Config{Seed: 1996, Quick: quick}
			want := openDriven(t, cfg, doc).Result().Row.Report.Events
			got := openDriven(t, cfg, doc).Events()
			if len(want) == 0 {
				t.Errorf("%s quick=%t: no events to compare", doc.ID, quick)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s quick=%t: Events differ from Result's events:\nEvents: %v\nResult: %v", doc.ID, quick, got, want)
			}
		}
	}
}

// TestLedgerSessionResult pins that a session opened and driven
// exactly as campaign.RunCells drives one, and closed before it is read,
// reports through Result the think/wait row runScenario reports for the
// same document and seed. Each campaign template runs at two seeds.
func TestLedgerSessionResult(t *testing.T) {
	for _, path := range []string{
		"../../testdata/campaigns/demo-type.json",
		"../../testdata/campaigns/demo-storm.json",
		"../campaign/testdata/tiny-type.json",
	} {
		doc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			res, err := runScenario(context.Background(), Config{Seed: seed, Quick: true}, doc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", doc.ID, seed, err)
			}
			want := res.(*ScenarioResult).Row
			s, err := OpenScenarioSession(Config{Seed: seed, Quick: true}, doc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", doc.ID, seed, err)
			}
			s.Drive()
			s.Close()
			got := s.Result().Row
			if got.Transitions == 0 {
				t.Errorf("%s seed %d: no think/wait transition", doc.ID, seed)
			}
			if got.ThinkMs != want.ThinkMs || got.WaitMs != want.WaitMs || got.Transitions != want.Transitions {
				t.Errorf("%s seed %d: ledger session think/wait/transitions %v/%v/%d, runScenario %v/%v/%d",
					doc.ID, seed, got.ThinkMs, got.WaitMs, got.Transitions, want.ThinkMs, want.WaitMs, want.Transitions)
			}
		}
	}
}

// TestCampaignSessionStoresNoSamples pins what a campaign session
// keeps of its instrument: opened as campaign.RunCells opens one, with
// no sample tap, and driven to the end, it stores no idle sample — only
// the busy spans its instrument folded as it ran, which Events reads.
func TestCampaignSessionStoresNoSamples(t *testing.T) {
	long, err := scenario.ParseFile(filepath.Join(twinDir, "fz-000000000000001b.json"))
	if err != nil {
		t.Fatal(err)
	}
	short, err := scenario.ParseFile("../../testdata/campaigns/demo-type.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []scenario.Doc{long, short} {
		for _, quick := range []bool{true, false} {
			s := openDriven(t, Config{Seed: 1996, Quick: quick}, doc)
			spans := s.r.il.Spans()
			events := s.Events()
			if got := s.r.il.Samples(); got != nil {
				t.Errorf("%s quick=%t: session stored %d idle samples (capacity %d), want none",
					doc.ID, quick, len(got), cap(got))
			}
			if len(spans) == 0 || len(events) == 0 {
				t.Errorf("%s quick=%t: %d busy spans and %d events; the check is vacuous", doc.ID, quick, len(spans), len(events))
			}
		}
	}
}

// tapped opens doc under cfg with the instrument's sample tap on and
// drives it to the end of its program, leaving it open.
func tapped(t *testing.T, cfg Config, doc scenario.Doc) *ScenarioSession {
	t.Helper()
	s, err := OpenScenarioSession(cfg, doc)
	if err != nil {
		t.Fatalf("%s: %v", doc.ID, err)
	}
	s.r.il.Record()
	s.Drive()
	return s
}

// requireOnlineMatchesReplay extracts the finished session s online,
// from the busy spans its instrument folded as it ran, and requires
// what core.Extract makes of the tapped samples with the same options:
// the same spans and the same events. It returns the events.
func requireOnlineMatchesReplay(t *testing.T, label string, s *ScenarioSession) []core.Event {
	t.Helper()
	samples, msgs := s.r.il.Samples(), s.r.pr.Msgs
	if want, got := core.BusySpans(samples, core.DefaultBusyThreshold), s.r.il.Spans(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %d online busy spans differ from the %d BusySpans makes of %d samples", label, len(got), len(want), len(samples))
	}
	want := core.Extract(samples, msgs, core.ExtractOptions{Thread: s.thread.ID(), StripQueueSync: true})
	got := s.Events()
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s: event %d of %d differs:\nonline %+v\nreplay %+v", label, i, len(want), got[i], want[i])
				return got
			}
		}
		t.Errorf("%s: %d events online, %d replayed", label, len(got), len(want))
	}
	return got
}

// TestOnlineExtractMatchesReplay pins the one-algorithm contract: a
// session's events, extracted from the spans its instrument folded
// while it ran (elided runs in closed form), equal core.Extract over the
// samples it recorded, for every committed single-run document (the
// scenario corpus and the campaign templates) and 64 generated ones, in
// quick and full mode.
func TestOnlineExtractMatchesReplay(t *testing.T) {
	docs := singleRunDocs(t)
	for seed := uint64(1); seed <= 64; seed++ {
		docs = append(docs, scenario.Generate(seed, scenario.Constraints{}))
	}
	for _, doc := range docs {
		for _, quick := range []bool{true, false} {
			label := fmt.Sprintf("%s quick=%t", doc.ID, quick)
			if len(requireOnlineMatchesReplay(t, label, tapped(t, Config{Seed: 1996, Quick: quick}, doc))) == 0 {
				t.Errorf("%s: no events", label)
			}
		}
	}
}

// TestLongTypingMeasuredToTheEnd is a 1,500-character document typed at
// 60 wpm, about 350 s of simulated time. A trace buffer sized for 240 s
// once filled at 346 s and stopped the instrument, and the last 25
// events silently reported 0 ms. With no buffer to fill, every event is
// measured, online exactly as core.Extract measures the tapped samples.
func TestLongTypingMeasuredToTheEnd(t *testing.T) {
	doc := scenario.Doc{
		Schema: scenario.SchemaVersion, ID: "long-typing", Title: "1,500 characters at 60 wpm",
		Persona: "nt40", Machine: "p100",
		Workload: scenario.Workload{Kind: scenario.KindTyping,
			Full: scenario.Params{Chars: 1500, WPM: 60, TrailingS: 0.5}},
	}
	events := requireOnlineMatchesReplay(t, doc.ID, tapped(t, Config{Seed: 1996}, doc))
	if len(events) != 1500 {
		t.Fatalf("%d events, want one per character", len(events))
	}
	for i, e := range events {
		if e.Latency <= 0 || e.Busy <= 0 {
			t.Fatalf("event %d of %d at %v reports latency %v and busy %v", i, len(events), e.Enqueued, e.Latency, e.Busy)
		}
	}
}
