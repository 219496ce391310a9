package experiments

import (
	"context"
	"strings"
	"testing"

	"latlab/internal/apps"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
)

// mustRun executes an experiment run function with a background context
// and fails the test on error.
func mustRun(t *testing.T, f func(context.Context, Config) (Result, error), cfg Config) Result {
	t.Helper()
	res, err := f(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestFmtMs(t *testing.T) {
	if got := fmtMs(2.345); got != "2.35ms" {
		t.Fatalf("fmtMs(2.345) = %q", got)
	}
	if got := fmtMs(10760); got != "10.760s" {
		t.Fatalf("fmtMs(10760) = %q", got)
	}
}

func TestRunChainDeadlinePanics(t *testing.T) {
	r := newRig(DefaultConfig(), persona.NT40())
	defer r.shutdown()
	n := apps.NewNotepad(r.sys)
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatalf("expected deadline panic")
		} else if !strings.Contains(rec.(string), "did not complete") {
			t.Fatalf("unexpected panic: %v", rec)
		}
	}()
	// A step that cannot complete in time: its think time alone
	// outlasts an impossible deadline (now).
	steps := []chainStep{step(kernel.WMChar, 'a', simtime.Second)}
	openChain("", r, n.Thread(), steps, false, r.sys.K.Now()).Drive()
}

func TestChainPacingWaitsForCompletion(t *testing.T) {
	// Each chain step must start at least `think` after the previous
	// event's completion.
	r := newRig(DefaultConfig(), persona.NT40())
	defer r.shutdown()
	n := apps.NewNotepad(r.sys)
	think := 300 * simtime.Millisecond
	steps := []chainStep{
		step(kernel.WMChar, 'a', think),
		step(kernel.WMChar, 'b', think),
		step(kernel.WMChar, 'c', think),
	}
	openChain("", r, n.Thread(), steps, false, simtime.Time(20*simtime.Second)).Drive()
	events := r.extract(n.Thread(), false)
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		gap := events[i].Enqueued.Sub(events[i-1].End)
		if gap < think-50*simtime.Millisecond {
			t.Fatalf("step %d issued %v after completion, want ≥%v", i, gap, think)
		}
	}
}
