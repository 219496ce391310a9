package simtime

import (
	"testing"
	"testing/quick"
)

func TestArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(10 * Millisecond)
	if got := t1.Sub(t0); got != 10*Millisecond {
		t.Fatalf("Sub = %v, want 10ms", got)
	}
	if !t1.After(t0) {
		t.Fatalf("After ordering wrong")
	}
}

func TestConversions(t *testing.T) {
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v, want 2", got)
	}
	if got := FromMillis(10.76); got != 10760*Microsecond {
		t.Fatalf("FromMillis = %v", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds = %v", got)
	}
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Time.Seconds = %v", got)
	}
	if got := Time(2 * Millisecond).Milliseconds(); got != 2 {
		t.Fatalf("Time.Milliseconds = %v", got)
	}
}

func TestCPUFrequency(t *testing.T) {
	CPUFrequency.Validate()
	// 100 MHz: 1 ms = 100,000 cycles; 1 cycle = 10 ns.
	if got := CPUFrequency.CyclesIn(Millisecond); got != 100_000 {
		t.Fatalf("CyclesIn(1ms) = %d, want 100000", got)
	}
	if got := CPUFrequency.DurationOf(400); got != 4*Microsecond {
		t.Fatalf("DurationOf(400) = %v, want 4µs (paper §2.5 clock interrupt)", got)
	}
	if got := CPUFrequency.CycleAt(Time(Second)); got != 100_000_000 {
		t.Fatalf("CycleAt(1s) = %d", got)
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Validate(3) should panic: 3 Hz has no integral ns period")
		}
	}()
	Hz(3).Validate()
}

func TestCyclesRoundTrip(t *testing.T) {
	// DurationOf(CyclesIn(d)) == d whenever d is a whole number of cycles.
	f := func(raw int32) bool {
		cycles := int64(raw)
		if cycles < 0 {
			cycles = -cycles
		}
		d := CPUFrequency.DurationOf(cycles)
		return CPUFrequency.CyclesIn(d) == cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsBefore(t *testing.T) {
	cases := []struct {
		start Time
		step  Duration
		limit Time
		want  int64
	}{
		{0, Millisecond, Time(10 * Millisecond), 9},                    // 10 steps reach the limit exactly; only 9 end strictly before
		{0, Millisecond, Time(10*Millisecond + 1), 10},                 // one ns past the boundary admits the 10th
		{Time(3 * Millisecond), Millisecond, Time(3 * Millisecond), 0}, // empty gap
		{Time(5 * Millisecond), Millisecond, Time(4 * Millisecond), 0}, // limit behind start
		{0, Millisecond, Time(Millisecond), 0},                         // first step lands on the limit
		{0, Millisecond, Time(Millisecond + 1), 1},
		{0, 3, Time(10), 3},
	}
	for _, c := range cases {
		if got := IterationsBefore(c.start, c.step, c.limit); got != c.want {
			t.Fatalf("IterationsBefore(%v, %v, %v) = %d, want %d", c.start, c.step, c.limit, got, c.want)
		}
	}
}

// TestIterationsBeforeProperty: the returned n is exactly the boundary
// of the strict-before predicate.
func TestIterationsBeforeProperty(t *testing.T) {
	f := func(rawStart, rawStep, rawGap uint16) bool {
		start := Time(rawStart)
		step := Duration(rawStep%1000) + 1
		limit := start.Add(Duration(rawGap))
		n := IterationsBefore(start, step, limit)
		if n < 0 {
			return false
		}
		if start.Add(Duration(n)*step) >= limit && n > 0 {
			return false
		}
		return start.Add(Duration(n+1)*step) >= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsBeforePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("IterationsBefore with zero step should panic")
		}
	}()
	IterationsBefore(0, 0, Time(10))
}

func TestStrings(t *testing.T) {
	if got := (10760 * Microsecond).String(); got != "10.76ms" {
		t.Fatalf("Duration.String = %q", got)
	}
	if got := Time(1500 * Millisecond).String(); got != "1.5s" {
		t.Fatalf("Time.String = %q", got)
	}
}
