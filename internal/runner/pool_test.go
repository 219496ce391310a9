package runner

import (
	"context"
	"testing"
)

func TestDrainStopsFeedingWithoutError(t *testing.T) {
	// Drain closed before the pool starts: no index is fed, so no job
	// runs and nothing is emitted, and — unlike cancellation — the pool
	// returns no error, because draining is a graceful stop.
	drain := make(chan struct{})
	close(drain)
	ran, emitted := 0, 0
	err := Ordered(context.Background(), 3, 2, drain,
		func(context.Context, int) int { ran++; return 0 },
		func(int, int) error { emitted++; return nil })
	if err != nil {
		t.Fatalf("drained pool must not error: %v", err)
	}
	if ran != 0 || emitted != 0 {
		t.Fatalf("ran %d jobs and emitted %d, want 0 and 0", ran, emitted)
	}
}

func TestDrainMidRunCompletesInFlight(t *testing.T) {
	// Drain after the first job starts: the in-flight job completes and
	// is emitted; later indices are never fed.
	drain := make(chan struct{})
	started := make(chan struct{})
	go func() {
		<-started
		close(drain)
	}()
	var emitted []int
	err := Ordered(context.Background(), 2, 1, drain,
		func(_ context.Context, i int) int {
			if i == 0 {
				close(started)
				<-drain // hold until the drain fires, then finish normally
			}
			return 10 + i
		},
		func(i, v int) error { emitted = append(emitted, i, v); return nil })
	if err != nil {
		t.Fatalf("drained pool must not error: %v", err)
	}
	if len(emitted) != 2 || emitted[0] != 0 || emitted[1] != 10 {
		t.Fatalf("emitted (index, value) = %v, want only the in-flight job's (0, 10)", emitted)
	}
}
