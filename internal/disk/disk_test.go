package disk

import (
	"testing"
	"testing/quick"

	"latlab/internal/eventq"
	"latlab/internal/machine"
	"latlab/internal/rng"
	"latlab/internal/simtime"
)

// p100 is the paper's drive, the Fujitsu M1606SAU.
var p100 = machine.Pentium100().Disk

// rngNew and quickCheck keep the property test terse.
func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

func quickCheck(f any, max int) error {
	return quick.Check(f, &quick.Config{MaxCount: max})
}

// fakeSched drives the disk with a standalone event queue.
type fakeSched struct {
	now simtime.Time
	q   eventq.Queue
}

func (s *fakeSched) Now() simtime.Time { return s.now }
func (s *fakeSched) After(d simtime.Duration, fn func(simtime.Time)) {
	s.q.Schedule(s.now.Add(d), fn)
}
func (s *fakeSched) run() {
	for {
		at := s.q.NextTime()
		e, ok := s.q.Pop()
		if !ok {
			return
		}
		s.now = at
		e.Fire(s.now)
	}
}

func TestServiceTimeComponents(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 1)
	p := d.Params()

	// Sequential read at the head position: no seek.
	r := Request{Op: Read, Block: 0, Blocks: 8, Done: func(simtime.Time, error) {}}
	got := d.ServiceTime(r, 0)
	want := p.ControllerOverhead + 8*p.TransferPerBlock
	if got != want {
		t.Fatalf("no-seek service = %v, want %v", got, want)
	}

	// Far seek saturates at MaxSeek.
	far := Request{Op: Read, Block: p.Blocks - 8, Blocks: 8, Done: func(simtime.Time, error) {}}
	got = d.ServiceTime(far, 0.5)
	want = p.ControllerOverhead + p.MaxSeek + simtime.Duration(0.5*float64(p.Rotation)) + 8*p.TransferPerBlock
	if got != want {
		t.Fatalf("far-seek service = %v, want %v", got, want)
	}
	if got < simtime.FromMillis(20) || got > simtime.FromMillis(30) {
		t.Fatalf("full-stroke read should be a few tens of ms, got %v", got)
	}
}

func TestFIFOCompletionOrder(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(Request{Op: Read, Block: int64(i) * 100_000, Blocks: 4,
			Done: func(simtime.Time, error) { order = append(order, i) }})
	}
	if d.QueueLen() != 4 || !d.Busy() {
		t.Fatalf("queue/busy = %d/%v, want 4/true", d.QueueLen(), d.Busy())
	}
	s.run()
	if len(order) != 5 {
		t.Fatalf("completions = %d, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, not FIFO", order)
		}
	}
	if d.Served() != 5 || d.Busy() || d.QueueLen() != 0 {
		t.Fatalf("final state wrong: served=%d busy=%v q=%d", d.Served(), d.Busy(), d.QueueLen())
	}
	if d.BusyTime() <= 0 {
		t.Fatalf("busy time not accumulated")
	}
}

func TestCompletionTimeAdvances(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 1)
	var doneAt simtime.Time
	d.Submit(Request{Op: Write, Block: 500_000, Blocks: 16, Done: func(now simtime.Time, _ error) { doneAt = now }})
	s.run()
	if doneAt <= 0 {
		t.Fatalf("completion time = %v, should be after submission", doneAt)
	}
	// A single mid-disk request on an idle drive: ms-scale, not µs or s.
	if doneAt < simtime.Time(simtime.Millisecond) || doneAt > simtime.Time(100*simtime.Millisecond) {
		t.Fatalf("completion at %v, outside plausible range", doneAt)
	}
}

func TestResubmitFromCompletion(t *testing.T) {
	// A Done callback that submits another request must not deadlock or
	// lose the request.
	s := &fakeSched{}
	d := New(p100, s, 1)
	completions := 0
	d.Submit(Request{Op: Read, Block: 0, Blocks: 1, Done: func(simtime.Time, error) {
		completions++
		d.Submit(Request{Op: Read, Block: 1000, Blocks: 1, Done: func(simtime.Time, error) {
			completions++
		}})
	}})
	s.run()
	if completions != 2 {
		t.Fatalf("completions = %d, want 2", completions)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() simtime.Time {
		s := &fakeSched{}
		d := New(p100, s, 42)
		var last simtime.Time
		for i := 0; i < 20; i++ {
			d.Submit(Request{Op: Read, Block: int64(i*37) % 1_000_000 * 2, Blocks: 8,
				Done: func(now simtime.Time, _ error) { last = now }})
		}
		s.run()
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different schedules: %v vs %v", a, b)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil done", func() { d.Submit(Request{Block: 0, Blocks: 1}) })
	mustPanic("zero blocks", func() {
		d.Submit(Request{Block: 0, Blocks: 0, Done: func(simtime.Time, error) {}})
	})
	mustPanic("past end", func() {
		d.Submit(Request{Block: d.Params().Blocks, Blocks: 1, Done: func(simtime.Time, error) {}})
	})
}

// Property: every submitted request completes exactly once, in FIFO
// order, with strictly increasing completion times.
func TestDiskFIFOProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		s := &fakeSched{}
		d := New(p100, s, seed)
		r := rngNew(seed)
		var order []int
		var times []simtime.Time
		for i := 0; i < n; i++ {
			i := i
			block := int64(r.Intn(1_900_000))
			d.Submit(Request{Op: Read, Block: block, Blocks: int64(r.Intn(16)) + 1,
				Done: func(now simtime.Time, _ error) {
					order = append(order, i)
					times = append(times, now)
				}})
		}
		s.run()
		if len(order) != n || d.Served() != int64(n) {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
			if i > 0 && times[i] <= times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 50); err != nil {
		t.Fatal(err)
	}
}

// scriptedFaults fails the first failN attempts of every request and
// optionally degrades service / stalls the device.
type scriptedFaults struct {
	failN  int
	factor float64
	stall  simtime.Time
}

func (f *scriptedFaults) ServiceFactor(simtime.Time) float64 {
	if f.factor > 0 {
		return f.factor
	}
	return 1
}
func (f *scriptedFaults) StallUntil(simtime.Time) simtime.Time { return f.stall }
func (f *scriptedFaults) AttemptFails(_ Op, _ int64, _ simtime.Time, attempt int) bool {
	return attempt < f.failN
}

func TestRetriedRequestCompletesExactlyOnce(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 7)
	d.SetFaults(&scriptedFaults{failN: 2})
	completions := 0
	var gotErr error
	var cleanDone, faultyDone simtime.Time
	d.Submit(Request{Op: Read, Block: 400_000, Blocks: 8, Done: func(now simtime.Time, err error) {
		completions++
		gotErr = err
		faultyDone = now
	}})
	s.run()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if gotErr != nil {
		t.Fatalf("retried request should succeed, got %v", gotErr)
	}
	if d.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", d.Retries())
	}
	if d.MediaErrors() != 0 || d.Served() != 1 {
		t.Fatalf("mediaErrs=%d served=%d, want 0/1", d.MediaErrors(), d.Served())
	}

	// A clean run of the same request finishes earlier: retries cost time.
	s2 := &fakeSched{}
	d2 := New(p100, s2, 7)
	d2.Submit(Request{Op: Read, Block: 400_000, Blocks: 8, Done: func(now simtime.Time, _ error) {
		cleanDone = now
	}})
	s2.run()
	if faultyDone <= cleanDone {
		t.Fatalf("faulty completion %v should be later than clean %v", faultyDone, cleanDone)
	}
}

func TestExhaustedRetriesSurfaceMediaError(t *testing.T) {
	s := &fakeSched{}
	d := New(p100, s, 7)
	d.SetFaults(&scriptedFaults{failN: 100}) // never succeeds
	completions := 0
	var gotErr error
	d.Submit(Request{Op: Write, Block: 1234, Blocks: 4, Done: func(_ simtime.Time, err error) {
		completions++
		gotErr = err
	}})
	// A second, healthy-looking request behind it must still be serviced.
	var second bool
	d.Submit(Request{Op: Read, Block: 9999, Blocks: 1, Done: func(simtime.Time, error) { second = true }})
	s.run()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	me, ok := gotErr.(*MediaError)
	if !ok {
		t.Fatalf("err = %v, want *MediaError", gotErr)
	}
	if me.Attempts != maxRetries+1 || me.Op != Write || me.Block != 1234 {
		t.Fatalf("MediaError = %+v, want {Write 1234 %d}", me, maxRetries+1)
	}
	// Both requests ran under the always-fail model: each burned the full
	// retry budget and surfaced an error, and crucially the second was
	// still serviced after the first gave up.
	if d.MediaErrors() != 2 || d.Retries() != int64(2*maxRetries) {
		t.Fatalf("mediaErrs=%d retries=%d, want 2/%d", d.MediaErrors(), d.Retries(), 2*maxRetries)
	}
	if !second {
		t.Fatalf("request queued behind a failing one never completed")
	}
	if me.Error() == "" {
		t.Fatalf("MediaError.Error empty")
	}
}

func TestFaultModelStallAndDegradeLengthenService(t *testing.T) {
	run := func(fm FaultModel) simtime.Time {
		s := &fakeSched{}
		d := New(p100, s, 11)
		var done simtime.Time
		d.Submit(Request{Op: Read, Block: 250_000, Blocks: 8, Done: func(now simtime.Time, _ error) { done = now }})
		s.run()
		return done
	}
	clean := run(nil)
	stalled := func() simtime.Time {
		s := &fakeSched{}
		d := New(p100, s, 11)
		d.SetFaults(&scriptedFaults{stall: simtime.Time(simtime.FromMillis(50))})
		var done simtime.Time
		d.Submit(Request{Op: Read, Block: 250_000, Blocks: 8, Done: func(now simtime.Time, _ error) { done = now }})
		s.run()
		return done
	}()
	degraded := func() simtime.Time {
		s := &fakeSched{}
		d := New(p100, s, 11)
		d.SetFaults(&scriptedFaults{factor: 4})
		var done simtime.Time
		d.Submit(Request{Op: Read, Block: 250_000, Blocks: 8, Done: func(now simtime.Time, _ error) { done = now }})
		s.run()
		return done
	}()
	if stalled < clean.Add(simtime.FromMillis(50)) {
		t.Fatalf("stalled completion %v not delayed past %v+50ms", stalled, clean)
	}
	if degraded <= clean {
		t.Fatalf("degraded completion %v not later than clean %v", degraded, clean)
	}
}
