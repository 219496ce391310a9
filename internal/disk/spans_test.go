package disk

import (
	"testing"

	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// TestRecorderDecomposesService checks that a traced clean transfer
// emits one disk-io container whose leaf parts sum exactly to the
// service time the drive charged.
func TestRecorderDecomposesService(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 1)
	rec := spans.NewRecorder(s.Now)
	d.SetRecorder(rec)
	d.Submit(Request{Op: Write, Block: 400_000, Blocks: 8, Done: func(simtime.Time, error) {}})
	s.run()

	var containers int
	for _, sp := range rec.Spans() {
		switch sp.Cause {
		case spans.CauseDiskIO:
			containers++
			if sp.Label != "disk write" {
				t.Errorf("container label = %q, want disk write", sp.Label)
			}
			if sp.Duration() != d.BusyTime() {
				t.Errorf("container duration = %v, want service time %v", sp.Duration(), d.BusyTime())
			}
		case spans.CauseDiskStall, spans.CauseDiskDegraded, spans.CauseDiskRetry:
			t.Errorf("clean transfer emitted fault span %v", sp.Cause)
		}
	}
	if containers != 1 {
		t.Fatalf("disk-io containers = %d, want 1", containers)
	}
	a := spans.Attribution(rec.Spans())
	parts := a.Dur[spans.CauseDiskCtrl] + a.Dur[spans.CauseDiskSeek] +
		a.Dur[spans.CauseDiskRot] + a.Dur[spans.CauseDiskXfer]
	if parts != d.BusyTime() {
		t.Fatalf("leaf parts sum to %v, want %v", parts, d.BusyTime())
	}
	if a.Count[spans.CauseDiskXfer] != 8 {
		t.Fatalf("xfer count = %d, want 8 blocks", a.Count[spans.CauseDiskXfer])
	}
}

// TestRecorderCoversFaultPath checks the stall / degraded / retry spans
// of a faulted transfer: two attempts, each with its stall and
// degraded-surcharge parts, joined by one retry backoff.
func TestRecorderCoversFaultPath(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 7)
	d.SetFaults(&scriptedFaults{failN: 1, factor: 2, stall: simtime.Time(simtime.Millisecond)})
	rec := spans.NewRecorder(s.Now)
	d.SetRecorder(rec)
	d.Submit(Request{Op: Read, Block: 123_456, Blocks: 4, Done: func(simtime.Time, error) {}})
	s.run()

	var containers int
	for _, sp := range rec.Spans() {
		if sp.Cause == spans.CauseDiskIO {
			containers++
			if sp.Label != "disk read" {
				t.Errorf("container label = %q, want disk read", sp.Label)
			}
		}
	}
	if containers != 2 {
		t.Fatalf("disk-io containers = %d, want one per attempt (2)", containers)
	}
	a := spans.Attribution(rec.Spans())
	// Only the first attempt starts inside the stall window (StallUntil
	// is an absolute instant); the retry begins after it has passed.
	if a.Dur[spans.CauseDiskStall] != simtime.Millisecond {
		t.Errorf("stall = %v, want the first attempt's 1ms", a.Dur[spans.CauseDiskStall])
	}
	if a.Dur[spans.CauseDiskDegraded] <= 0 {
		t.Errorf("degraded surcharge not recorded under service factor 2")
	}
	if a.Count[spans.CauseDiskRetry] != 1 || a.Dur[spans.CauseDiskRetry] != retryBackoff {
		t.Errorf("retry = %d × %v, want 1 × %v backoff",
			a.Count[spans.CauseDiskRetry], a.Dur[spans.CauseDiskRetry], retryBackoff)
	}
	// The decomposition still covers exactly what the drive charged.
	mech := a.Dur[spans.CauseDiskCtrl] + a.Dur[spans.CauseDiskSeek] +
		a.Dur[spans.CauseDiskRot] + a.Dur[spans.CauseDiskXfer] + a.Dur[spans.CauseDiskDegraded]
	if mech != d.BusyTime() {
		t.Fatalf("service parts sum to %v, want busy time %v", mech, d.BusyTime())
	}
}

// TestRecorderDoesNotPerturbSchedule: completion times are identical
// with and without a recorder, on both the clean and the fault path.
func TestRecorderDoesNotPerturbSchedule(t *testing.T) {
	run := func(traced, faulty bool) simtime.Time {
		s := &fakeSched{}
		d := New(p100, s, 42)
		if faulty {
			d.SetFaults(&scriptedFaults{failN: 1, factor: 1.5, stall: simtime.Time(simtime.Millisecond)})
		}
		if traced {
			d.SetRecorder(spans.NewRecorder(s.Now))
		}
		var done simtime.Time
		for i := 0; i < 3; i++ {
			d.Submit(Request{Op: Read, Block: int64(i) * 250_000, Blocks: 8,
				Done: func(now simtime.Time, _ error) { done = now }})
		}
		s.run()
		return done
	}
	for _, faulty := range []bool{false, true} {
		if on, off := run(true, faulty), run(false, faulty); on != off {
			t.Errorf("faulty=%v: traced completion %v != untraced %v", faulty, on, off)
		}
	}
	// SetRecorder(nil) restores the untraced path.
	s := &fakeSched{}
	d := New(p100, s, 42)
	rec := spans.NewRecorder(s.Now)
	d.SetRecorder(rec)
	d.SetRecorder(nil)
	d.Submit(Request{Op: Read, Block: 0, Blocks: 1, Done: func(simtime.Time, error) {}})
	s.run()
	if rec.Len() != 0 {
		t.Fatalf("detached recorder still collected %d spans", rec.Len())
	}
}
