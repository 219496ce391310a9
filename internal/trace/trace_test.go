package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"latlab/internal/simtime"
)

func TestIdleSampleStolen(t *testing.T) {
	loop := simtime.Millisecond
	s := IdleSample{Done: 0, Elapsed: simtime.FromMillis(10.76)}
	if got := s.Stolen(loop); got != simtime.FromMillis(9.76) {
		t.Fatalf("Stolen = %v, want 9.76ms (paper Fig. 1)", got)
	}
	idle := IdleSample{Elapsed: simtime.Millisecond}
	if idle.Stolen(loop) != 0 {
		t.Fatalf("idle sample should have zero stolen time")
	}
	// Calibration jitter must not produce negative stolen time.
	short := IdleSample{Elapsed: simtime.FromMillis(0.99)}
	if short.Stolen(loop) != 0 {
		t.Fatalf("stolen time clamped at 0")
	}
}

func TestIdleSampleUtilization(t *testing.T) {
	loop := simtime.Millisecond
	// Paper §2.5: 10 ms sample containing 1 ms idle → 90% utilization.
	s := IdleSample{Elapsed: 10 * simtime.Millisecond}
	if got := s.Utilization(loop); got != 0.9 {
		t.Fatalf("Utilization = %v, want 0.9", got)
	}
	idle := IdleSample{Elapsed: simtime.Millisecond}
	if idle.Utilization(loop) != 0 {
		t.Fatalf("idle utilization should be 0")
	}
	if (IdleSample{}).Utilization(loop) != 0 {
		t.Fatalf("zero sample utilization should be 0")
	}
}

func TestMsgAPIString(t *testing.T) {
	if GetMessage.String() != "GetMessage" || PeekMessage.String() != "PeekMessage" {
		t.Fatalf("API names wrong")
	}
	if !strings.Contains(MsgAPI(9).String(), "9") {
		t.Fatalf("unknown API should show its value")
	}
}

func TestIdleCSVRoundTrip(t *testing.T) {
	in := []IdleSample{
		{Done: simtime.Time(simtime.Millisecond), Elapsed: simtime.Millisecond},
		{Done: simtime.Time(simtime.FromMillis(11.76)), Elapsed: simtime.FromMillis(10.76)},
	}
	var sb strings.Builder
	if err := WriteIdleCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseIdleCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Done != in[i].Done || out[i].Elapsed != in[i].Elapsed {
			t.Fatalf("sample %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestIdleCSVRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		in := make([]IdleSample, len(raw))
		for i, r := range raw {
			// Quantize to µs so the %.6f ms format is lossless.
			in[i] = IdleSample{
				Done:    simtime.Time(int64(r) * int64(simtime.Microsecond)),
				Elapsed: simtime.Duration(int64(r%100000)) * simtime.Microsecond,
			}
		}
		var sb strings.Builder
		if err := WriteIdleCSV(&sb, in); err != nil {
			return false
		}
		out, err := ParseIdleCSV(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParseIdleCSVErrors(t *testing.T) {
	if _, err := ParseIdleCSV(strings.NewReader("bogus\n1,2\n")); err == nil {
		t.Fatalf("missing header should error")
	}
	if _, err := ParseIdleCSV(strings.NewReader("done_ms,elapsed_ms\nnot,numbers\n")); err == nil {
		t.Fatalf("bad row should error")
	}
}

// discard is a Writer that counts nothing and allocates nothing, so the
// CSV-writer allocation budgets measure the encoder alone.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestWriteIdleCSVRowAllocFree(t *testing.T) {
	samples := make([]IdleSample, 1000)
	for i := range samples {
		samples[i] = IdleSample{Done: simtime.Time(i) * 1000, Elapsed: simtime.Millisecond}
	}
	// One run writes 1000 rows; a budget of 2 allocations per run (the
	// row buffer, plus slack for the io.WriteString header path) means
	// the per-row cost is zero.
	if avg := testing.AllocsPerRun(10, func() {
		if err := WriteIdleCSV(discard{}, samples); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Fatalf("WriteIdleCSV allocates %.1f per 1000 rows, want ≤2", avg)
	}
}

func BenchmarkWriteIdleCSV(b *testing.B) {
	samples := make([]IdleSample, 1000)
	for i := range samples {
		samples[i] = IdleSample{Done: simtime.Time(i) * 1000, Elapsed: simtime.Millisecond}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteIdleCSV(discard{}, samples); err != nil {
			b.Fatal(err)
		}
	}
}
