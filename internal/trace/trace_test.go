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

func TestWriteMsgCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteMsgCSV(&sb, []MsgRecord{{
		API: GetMessage, Call: 0, Return: simtime.Time(simtime.Millisecond),
		Received: true, Kind: 7, Enqueued: 0, QueueLen: 1, Thread: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "api,call_ms") {
		t.Fatalf("missing header: %q", got)
	}
	if !strings.Contains(got, "GetMessage,0.000000,1.000000,true,7,0.000000,1,3") {
		t.Fatalf("row wrong: %q", got)
	}
}

func TestMsgCSVRoundTrip(t *testing.T) {
	in := []MsgRecord{
		{API: GetMessage, Call: simtime.Time(simtime.Millisecond), Return: simtime.Time(3 * simtime.Millisecond),
			Received: true, Kind: 7, Enqueued: simtime.Time(simtime.FromMillis(0.25)), QueueLen: 2, Thread: 1},
		{API: PeekMessage, Call: simtime.Time(simtime.FromMillis(11.76)), Return: simtime.Time(simtime.FromMillis(11.76)),
			Received: false, Kind: 0, Enqueued: 0, QueueLen: 0, Thread: 4},
		{API: MsgAPI(9), Call: 0, Return: 0, Received: true, Kind: -3, Enqueued: 0, QueueLen: 0, Thread: 0},
	}
	var sb strings.Builder
	if err := WriteMsgCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseMsgCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestCounterCSVRoundTrip(t *testing.T) {
	in := []CounterSnapshot{
		{Label: "getmsg-warm", Cycles: 4320, Events: map[string]int64{
			"itlb_miss": 3, "dtlb_miss": 7, "l2_miss": 12,
		}},
		{Label: "getmsg-cold", Cycles: 58000, Events: map[string]int64{
			"itlb_miss": 31, "dtlb_miss": 64, "l2_miss": 410,
		}},
		{Label: "empty-events", Cycles: -1},
	}
	var sb strings.Builder
	if err := WriteCounterCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseCounterCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Label != in[i].Label || out[i].Cycles != in[i].Cycles {
			t.Fatalf("snapshot %d: got %+v, want %+v", i, out[i], in[i])
		}
		if len(out[i].Events) != len(in[i].Events) {
			t.Fatalf("snapshot %d events: got %v, want %v", i, out[i].Events, in[i].Events)
		}
		for k, v := range in[i].Events {
			if out[i].Events[k] != v {
				t.Fatalf("snapshot %d event %q: got %d, want %d", i, k, out[i].Events[k], v)
			}
		}
	}
}

func TestWriteCounterCSVDeterministic(t *testing.T) {
	// Map iteration order varies run to run; the writer must not.
	snap := []CounterSnapshot{{Label: "x", Cycles: 1, Events: map[string]int64{
		"c": 3, "a": 1, "b": 2,
	}}}
	var first string
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		if err := WriteCounterCSV(&sb, snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
			if !strings.Contains(first, "x,1,a=1;b=2;c=3") {
				t.Fatalf("events not sorted by name: %q", first)
			}
		} else if sb.String() != first {
			t.Fatalf("write %d differs from first:\n%q\n%q", i, sb.String(), first)
		}
	}
}

func TestWriteCounterCSVReservedChars(t *testing.T) {
	var sb strings.Builder
	if err := WriteCounterCSV(&sb, []CounterSnapshot{{Label: "a,b"}}); err == nil {
		t.Fatalf("comma in label should error")
	}
	if err := WriteCounterCSV(&sb, []CounterSnapshot{{
		Label: "ok", Events: map[string]int64{"a=b": 1},
	}}); err == nil {
		t.Fatalf("'=' in event name should error")
	}
}

func TestParseCounterCSVErrors(t *testing.T) {
	cases := []string{
		"bogus\nx,1,\n",
		"label,cycles,events\nx,notanumber,\n",
		"label,cycles,events\nx,1\n",
		"label,cycles,events\nx,1,a=1;a=2\n",
		"label,cycles,events\nx,1,=5\n",
		"label,cycles,events\nx,1,a\n",
		"label,cycles,events\nx,1,a=nope\n",
	}
	for i, c := range cases {
		if _, err := ParseCounterCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should error:\n%s", i, c)
		}
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

func TestWriteMsgCSVRowAllocFree(t *testing.T) {
	recs := make([]MsgRecord, 1000)
	for i := range recs {
		recs[i] = MsgRecord{API: GetMessage, Received: true, Kind: 3, QueueLen: 1, Thread: 2}
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := WriteMsgCSV(discard{}, recs); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Fatalf("WriteMsgCSV allocates %.1f per 1000 rows, want ≤2", avg)
	}
}

func TestParseMsgCSVErrors(t *testing.T) {
	cases := []string{
		"bogus\nGetMessage,1,2,true,0,1,0,0\n",
		"api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread\nGetMessage,1,2\n",
		"api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread\nNoSuchAPI,1,2,true,0,1,0,0\n",
		"api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread\nGetMessage,x,2,true,0,1,0,0\n",
		"api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread\nGetMessage,1,2,maybe,0,1,0,0\n",
	}
	for i, c := range cases {
		if _, err := ParseMsgCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should error:\n%s", i, c)
		}
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
