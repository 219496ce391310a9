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

func TestBuffer(t *testing.T) {
	b := NewBuffer(2)
	if b.Full() || b.Len() != 0 {
		t.Fatalf("new buffer should be empty")
	}
	if !b.Append(IdleSample{Done: 1}) || !b.Append(IdleSample{Done: 2}) {
		t.Fatalf("appends within capacity should succeed")
	}
	if b.Append(IdleSample{Done: 3}) {
		t.Fatalf("append past capacity should fail")
	}
	if !b.Full() || b.Dropped() != 1 || b.Len() != 2 {
		t.Fatalf("full/dropped/len = %v/%d/%d", b.Full(), b.Dropped(), b.Len())
	}
	if b.Samples()[1].Done != 2 {
		t.Fatalf("samples content wrong")
	}
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 || b.Full() {
		t.Fatalf("reset did not clear buffer")
	}
}

// TestBufferBacked pins the backed buffer: its capacity is the one
// given, not the backing's, an empty backing grows by append, and a
// backing with room is recorded into in place.
func TestBufferBacked(t *testing.T) {
	b := NewBufferBacked(nil, 3)
	for i := 1; i <= 3; i++ {
		if !b.Append(IdleSample{Done: simtime.Time(i)}) {
			t.Fatalf("append %d within capacity 3 failed", i)
		}
	}
	if b.Append(IdleSample{Done: 4}) || !b.Full() || b.Cap() != 3 || b.Dropped() != 1 {
		t.Fatalf("full/cap/dropped = %v/%d/%d, want a full buffer of 3 that dropped 1", b.Full(), b.Cap(), b.Dropped())
	}

	backing := make([]IdleSample, 1, 8)
	b = NewBufferBacked(backing, 2)
	b.Append(IdleSample{Done: 5})
	b.Append(IdleSample{Done: 6})
	if !b.Full() || b.Len() != 2 || &b.Samples()[0] != &backing[0] || backing[:2][1].Done != 6 {
		t.Fatalf("a backing with room must be recorded into from its start, in place, up to capacity 2")
	}
}

func TestBufferBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewBuffer(0)
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

func TestBufferAppendAllocFree(t *testing.T) {
	b := NewBuffer(bufferPreSize) // fully pre-sized: appends must not grow
	s := IdleSample{Done: 1, Elapsed: simtime.Millisecond}
	if avg := testing.AllocsPerRun(1000, func() {
		if b.Full() {
			b.Reset()
		}
		b.Append(s)
	}); avg != 0 {
		t.Fatalf("Buffer.Append allocates %.1f/op, want 0", avg)
	}
}

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
