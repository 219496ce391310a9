package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"latlab/internal/cpu"
	"latlab/internal/experiments"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// fakeResult renders a fixed payload.
type fakeResult struct {
	payload string
}

func (r *fakeResult) Render(w io.Writer) error {
	_, err := fmt.Fprintln(w, r.payload)
	return err
}

// mkSpec builds a spec whose run sleeps for d (host time) and then
// returns a deterministic payload.
func mkSpec(id string, d time.Duration) experiments.Spec {
	return experiments.Spec{
		ID: id, Title: "fake " + id, Paper: "test",
		Run: func(ctx context.Context, cfg experiments.Config) (experiments.Result, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &fakeResult{payload: "payload-" + id}, nil
		},
	}
}

// render runs specs at the given parallelism and returns the emitted
// text plus the manifest.
func render(t *testing.T, specs []experiments.Spec, jobs int, timeout time.Duration) (string, *Manifest) {
	t.Helper()
	var buf bytes.Buffer
	man, err := Run(context.Background(), specs, Options{Jobs: jobs, Timeout: timeout}, func(out Outcome) error {
		if out.Record.Failed() {
			fmt.Fprintf(&buf, "FAILED %s\n", out.Spec.ID)
			return nil
		}
		return out.Result.Render(&buf)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return buf.String(), man
}

func TestDeterministicOrderAcrossJobCounts(t *testing.T) {
	// Later specs finish first, so a naive completion-order stream would
	// invert the output at jobs > 1.
	var specs []experiments.Spec
	const n = 12
	for i := 0; i < n; i++ {
		specs = append(specs, mkSpec(fmt.Sprintf("exp%02d", i), time.Duration(n-i)*3*time.Millisecond))
	}
	seq, manSeq := render(t, specs, 1, 0)
	par, manPar := render(t, specs, 8, 0)
	if seq != par {
		t.Fatalf("output differs between -jobs 1 and -jobs 8:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	if !strings.HasPrefix(seq, "payload-exp00\n") {
		t.Fatalf("output not in spec order:\n%s", seq)
	}
	for _, man := range []*Manifest{manSeq, manPar} {
		if len(man.Records) != n {
			t.Fatalf("records = %d, want %d", len(man.Records), n)
		}
		for i, r := range man.Records {
			if want := fmt.Sprintf("exp%02d", i); r.ID != want {
				t.Fatalf("record[%d] = %s, want %s", i, r.ID, want)
			}
			if r.Failed() {
				t.Fatalf("record %s unexpectedly failed: %s", r.ID, r.Error)
			}
			if r.WallSeconds <= 0 {
				t.Fatalf("record %s missing wall time", r.ID)
			}
		}
	}
	if manPar.Jobs != 8 || manSeq.Jobs != 1 {
		t.Fatalf("manifest jobs = %d/%d, want 8/1", manPar.Jobs, manSeq.Jobs)
	}
}

func TestPanicBecomesFailedRecord(t *testing.T) {
	specs := []experiments.Spec{
		mkSpec("ok1", time.Millisecond),
		{ID: "boom", Title: "panicker", Paper: "test",
			Run: func(context.Context, experiments.Config) (experiments.Result, error) {
				panic("injected failure")
			}},
		mkSpec("ok2", time.Millisecond),
	}
	out, man := render(t, specs, 4, 0)
	want := "payload-ok1\nFAILED boom\npayload-ok2\n"
	if out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	if man.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", man.Failed())
	}
	rec := man.Records[1]
	if !rec.Panicked || !strings.Contains(rec.Error, "injected failure") {
		t.Fatalf("panic record wrong: %+v", rec)
	}
	if !strings.Contains(rec.Error, "runner_test.go") {
		t.Fatalf("panic record should carry a stack trace: %q", rec.Error)
	}
}

// TestAppThreadPanicBecomesFailedRecord runs an experiment whose
// simulated application thread panics while the machine is being
// stepped. The panic reaches the experiment's goroutine through
// kernel.Run instead of killing the process from the thread's own
// goroutine, so the runner records it like any other panicking
// experiment and the rest of the suite completes.
func TestAppThreadPanicBecomesFailedRecord(t *testing.T) {
	specs := []experiments.Spec{
		mkSpec("ok1", time.Millisecond),
		{ID: "appboom", Title: "panicking app thread", Paper: "test",
			Run: func(context.Context, experiments.Config) (experiments.Result, error) {
				sys := system.New(system.Config{Persona: persona.NT40()})
				defer sys.Shutdown()
				sys.SpawnApp("crashy", func(tc *kernel.TC) {
					tc.Compute(cpu.Segment{Name: "work", BaseCycles: 50_000})
					panic("app thread failure")
				})
				sys.K.Run(simtime.Time(simtime.Second))
				return &fakeResult{payload: "unreachable"}, nil
			}},
		mkSpec("ok2", time.Millisecond),
	}
	out, man := render(t, specs, 2, 0)
	if want := "payload-ok1\nFAILED appboom\npayload-ok2\n"; out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	rec := man.Records[1]
	if !rec.Panicked || !strings.Contains(rec.Error, "thread crashy panicked: app thread failure") {
		t.Fatalf("panic record wrong: %+v", rec)
	}
	if !strings.Contains(rec.Error, "runner_test.go") {
		t.Fatalf("panic record should carry the thread's stack: %q", rec.Error)
	}
}

func TestTimeoutOfContextIgnoringSpec(t *testing.T) {
	block := make(chan struct{})
	defer close(block) // release the abandoned goroutine at test end
	specs := []experiments.Spec{
		mkSpec("fast", time.Millisecond),
		{ID: "stuck", Title: "ignores ctx", Paper: "test",
			Run: func(context.Context, experiments.Config) (experiments.Result, error) {
				<-block // ignores its context entirely
				return nil, errors.New("unreachable")
			}},
		mkSpec("fast2", time.Millisecond),
	}
	out, man := render(t, specs, 2, 50*time.Millisecond)
	want := "payload-fast\nFAILED stuck\npayload-fast2\n"
	if out != want {
		t.Fatalf("output = %q, want %q", out, want)
	}
	rec := man.Records[1]
	if !rec.TimedOut || rec.Error == "" {
		t.Fatalf("timeout record wrong: %+v", rec)
	}
	if man.Records[0].Failed() || man.Records[2].Failed() {
		t.Fatalf("timeout must not fail the other experiments: %+v", man.Records)
	}
}

func TestSpecHonoringContextTimesOutToo(t *testing.T) {
	// mkSpec's run returns ctx.Err() when cancelled: the error must be
	// classified as a timeout even though it arrived via the done path.
	_, man := render(t, []experiments.Spec{mkSpec("slow", time.Second)}, 1, 20*time.Millisecond)
	rec := man.Records[0]
	if !rec.TimedOut {
		t.Fatalf("cooperative timeout not flagged: %+v", rec)
	}
}

func TestEmitErrorCancelsRun(t *testing.T) {
	var specs []experiments.Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, mkSpec(fmt.Sprintf("e%d", i), 5*time.Millisecond))
	}
	boom := errors.New("render failed")
	calls := 0
	man, err := Run(context.Background(), specs, Options{Jobs: 2}, func(out Outcome) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error, want 1", calls)
	}
	if len(man.Records) != len(specs) {
		t.Fatalf("manifest records = %d, want %d (synthetic cancelled records for the rest)",
			len(man.Records), len(specs))
	}
	if man.Records[0].Cancelled || man.Records[0].Failed() {
		t.Fatalf("the emitted record must stay real: %+v", man.Records[0])
	}
	for _, r := range man.Records[1:] {
		if !r.Cancelled || r.Error != "cancelled" || !r.Failed() {
			t.Fatalf("uncollected spec %s not marked cancelled: %+v", r.ID, r)
		}
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []experiments.Spec{
		mkSpec("a", time.Millisecond), mkSpec("b", time.Millisecond), mkSpec("c", time.Millisecond),
	}
	man, err := Run(ctx, specs, Options{Jobs: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// Record count equals spec count even though the run never started:
	// every un-run spec gets a synthetic cancelled record, in spec order.
	if len(man.Records) != len(specs) {
		t.Fatalf("manifest records = %d, want %d", len(man.Records), len(specs))
	}
	for i, r := range man.Records {
		if r.ID != specs[i].ID {
			t.Fatalf("record[%d] = %s, want %s", i, r.ID, specs[i].ID)
		}
		if !r.Failed() {
			t.Fatalf("record under cancelled parent should fail: %+v", r)
		}
		if r.Cancelled && r.Error != "cancelled" {
			t.Fatalf("cancelled record %s carries error %q", r.ID, r.Error)
		}
	}
}

func TestManifestJSONRoundTrips(t *testing.T) {
	_, man := render(t, []experiments.Spec{mkSpec("a", time.Millisecond)}, 1, 0)
	var sb strings.Builder
	if err := man.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"id": "a"`, `"go_version"`, `"wall_seconds"`, `"records"`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("manifest JSON missing %s:\n%s", want, sb.String())
		}
	}
}

// TestManifestCarriesScenario checks that a scenario-compiled spec's
// document lands in its RunRecord — including the synthetic record of
// a cancelled suite — while hand-written specs stay scenario-free.
func TestManifestCarriesScenario(t *testing.T) {
	doc := &scenario.Doc{
		Schema: scenario.SchemaVersion, ID: "sc-test", Title: "t",
		Persona:  "nt40",
		Workload: scenario.Workload{Kind: scenario.KindTyping, Full: scenario.Params{Chars: 10}},
	}
	withDoc := mkSpec("sc-test", 0)
	withDoc.Scenario = doc
	specs := []experiments.Spec{withDoc, mkSpec("plain", 0)}

	_, man := render(t, specs, 1, 0)
	if man.Records[0].Scenario == nil || man.Records[0].Scenario.ID != "sc-test" {
		t.Fatalf("scenario spec's record lost its document: %+v", man.Records[0].Scenario)
	}
	if man.Records[1].Scenario != nil {
		t.Fatalf("hand-written spec's record gained a document")
	}

	// A cancelled suite synthesizes records for uncollected specs; the
	// document must survive there too, or a -json manifest from an
	// aborted run would under-describe the corpus it was replaying.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	man2, _ := Run(ctx, specs, Options{Jobs: 1}, nil)
	if man2 == nil {
		t.Fatal("cancelled run should still return a manifest")
	}
	for _, r := range man2.Records {
		if r.ID == "sc-test" && r.Cancelled && r.Scenario == nil {
			t.Fatalf("cancelled synthetic record lost the scenario document")
		}
	}
}
