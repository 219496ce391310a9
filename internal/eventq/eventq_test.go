package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"latlab/internal/simtime"
)

// drain pops and fires every event at its instant.
func drain(q *Queue) {
	for {
		at := q.NextTime()
		e, ok := q.Pop()
		if !ok {
			return
		}
		e.Fire(at)
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func(simtime.Time) { got = append(got, 3) })
	q.Schedule(10, func(simtime.Time) { got = append(got, 1) })
	q.Schedule(20, func(simtime.Time) { got = append(got, 2) })
	drain(&q)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, func(simtime.Time) { got = append(got, i) })
	}
	drain(&q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order at %d: %v", i, got[:i+1])
		}
	}
}

// TestReserveSeq pins that a reserved sequence number is the one the
// next Schedule would have taken, and that later events key after it.
func TestReserveSeq(t *testing.T) {
	var q Queue
	q.Schedule(5, func(simtime.Time) {})
	if got := q.ReserveSeq(); got != 1 {
		t.Fatalf("ReserveSeq after one Schedule = %d, want 1", got)
	}
	if got := q.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after a reservation = %d, want 2", got)
	}
	q.Schedule(5, func(simtime.Time) {})
	q.Pop()
	if _, seq, _ := q.HeadKey(); seq != 2 {
		t.Fatalf("event scheduled after the reservation has seq %d, want 2", seq)
	}
}

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Fatalf("Pop on empty queue should report not-ok")
	}
	if q.NextTime() != simtime.Never {
		t.Fatalf("NextTime on empty queue should be Never")
	}
	if at, seq, ok := q.HeadKey(); ok || at != simtime.Never || seq != 0 {
		t.Fatalf("HeadKey on empty queue = (%v, %d, %v), want (Never, 0, false)", at, seq, ok)
	}
	q.Schedule(7, func(simtime.Time) {})
	q.Pop()
	if _, ok := q.Pop(); ok || q.NextTime() != simtime.Never {
		t.Fatalf("a drained queue should be empty again")
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Schedule(nil) should panic")
		}
	}()
	var q Queue
	q.Schedule(0, nil)
}

func TestScheduleDuringFire(t *testing.T) {
	// Events scheduled from inside a callback for the same instant must
	// fire after the current event but before later instants.
	var q Queue
	var got []string
	q.Schedule(10, func(now simtime.Time) {
		got = append(got, "a")
		q.Schedule(now, func(simtime.Time) { got = append(got, "a-child") })
	})
	q.Schedule(20, func(simtime.Time) { got = append(got, "b") })
	drain(&q)
	want := []string{"a", "a-child", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestGrowPreservesContents grows the heap through several doublings
// while events are outstanding: the moved events keep their order and
// their callbacks.
func TestGrowPreservesContents(t *testing.T) {
	var q Queue
	var got []int
	const n = 10 * minCap
	for i := 0; i < n; i++ {
		i := i
		q.Schedule(simtime.Time(n-i), func(simtime.Time) { got = append(got, i) })
	}
	drain(&q)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for j, i := range got {
		if want := n - 1 - j; i != want { // scheduled latest-first
			t.Fatalf("pop %d fired event %d, want %d", j, i, want)
		}
	}
}

// TestSchedulePopAllocFree is the allocation budget for the hot path: a
// warm queue must push and pop without allocating. The simulator's
// per-event path depends on this staying at zero.
func TestSchedulePopAllocFree(t *testing.T) {
	var q Queue
	fn := func(simtime.Time) {}
	var at simtime.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += 10
		q.Schedule(at, fn)
		q.Schedule(at+5, fn)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Pop allocates %.1f times per run, want 0", allocs)
	}
}

// TestTickSecondAllocatesOnlyToGrow drives a zero Queue through a
// simulated second of 10 ms ticks, each followed by µs-spaced schedules
// that all pop before the next tick. The only allocations allowed are
// the heap's: its first allocation and one per doubling to the peak.
func TestTickSecondAllocatesOnlyToGrow(t *testing.T) {
	const tick = 10 * simtime.Millisecond
	fn := func(simtime.Time) {}
	var q Queue
	peak := 0
	allocs := testing.AllocsPerRun(10, func() {
		q = Queue{}
		var now simtime.Time
		for now < simtime.Time(simtime.Second) {
			tickAt := now.Add(tick)
			q.Schedule(tickAt, fn)
			for j := 1; j <= 40; j++ {
				q.Schedule(now.Add(simtime.Duration(37*j)*simtime.Microsecond), fn)
			}
			peak = max(peak, len(q.h))
			for now < tickAt {
				now = q.NextTime()
				if _, ok := q.Pop(); !ok {
					t.Fatal("queue emptied before its tick")
				}
			}
		}
	})
	grows := 1 // the first allocation, then one per doubling
	for c := minCap; c < peak; c *= 2 {
		grows++
	}
	if allocs > float64(grows) {
		t.Fatalf("a second of ticks allocates %.0f times, want at most %d (heap for a peak of %d events)", allocs, grows, peak)
	}
}

// Property: popping a randomly scheduled set of events yields them in
// non-decreasing time order, and within equal times, in scheduling order.
func TestPopOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		type rec struct {
			at  simtime.Time
			seq int
		}
		var scheduled, popped []rec
		for i := 0; i < int(n); i++ {
			at := simtime.Time(r.Intn(16)) // small range to force ties
			i := i
			q.Schedule(at, func(simtime.Time) { popped = append(popped, rec{at, i}) })
			scheduled = append(scheduled, rec{at, i})
		}
		drain(&q)
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		if len(popped) != len(scheduled) {
			return false
		}
		for i := range popped {
			if popped[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scanQueue is the oracle FuzzQueueEquivalence and
// TestQueueEquivalenceRandom hold the heap to: a plain slice in
// schedule order, whose head is the first event at the earliest
// instant. It shares no ordering code with the heap, and a linear scan
// is obviously right.
type scanQueue struct {
	events []entry
	seq    uint64
}

func (o *scanQueue) Schedule(at simtime.Time, fn func(now simtime.Time)) {
	o.events = append(o.events, entry{at: at, seq: o.seq, fn: fn})
	o.seq++
}

func (o *scanQueue) ReserveSeq() uint64 {
	o.seq++
	return o.seq - 1
}

// head returns the index of the first event at the earliest instant,
// or -1. The slice is in schedule order, so that is the (at, seq)
// minimum.
func (o *scanQueue) head() int {
	best := -1
	for i := range o.events {
		if best < 0 || o.events[i].at < o.events[best].at {
			best = i
		}
	}
	return best
}

func (o *scanQueue) HeadKey() (simtime.Time, uint64, bool) {
	i := o.head()
	if i < 0 {
		return simtime.Never, 0, false
	}
	return o.events[i].at, o.events[i].seq, true
}

func (o *scanQueue) Pop() (Event, bool) {
	i := o.head()
	if i < 0 {
		return Event{}, false
	}
	e := Event{fn: o.events[i].fn}
	o.events = append(o.events[:i], o.events[i+1:]...)
	return e, true
}

// equivalence drives a Queue and the scan oracle through one op stream
// and fails t at the first difference: every pop (instant and which
// callback), and HeadKey, NextTime and NextSeq after every op.
type equivalence struct {
	t        *testing.T
	q        Queue
	o        scanQueue
	qGot     []int
	oGot     []int
	id       int
	lastPop  simtime.Time
	maxDepth int
}

func (x *equivalence) schedule(at simtime.Time) {
	n := x.id
	x.id++
	x.q.Schedule(at, func(simtime.Time) { x.qGot = append(x.qGot, n) })
	x.o.Schedule(at, func(simtime.Time) { x.oGot = append(x.oGot, n) })
	x.maxDepth = max(x.maxDepth, len(x.q.h))
}

func (x *equivalence) reserve() {
	if q, o := x.q.ReserveSeq(), x.o.ReserveSeq(); q != o {
		x.t.Fatalf("ReserveSeq diverged: heap %d oracle %d", q, o)
	}
}

// pop pops one event from each side and fires both at the instant the
// oracle's head was due; it reports false when both are empty. The two
// must fire the same event, so the heap popped the oracle's head.
func (x *equivalence) pop() bool {
	at, _, _ := x.o.HeadKey()
	qe, qok := x.q.Pop()
	oe, ook := x.o.Pop()
	if qok != ook {
		x.t.Fatalf("Pop ok diverged: heap %v oracle %v", qok, ook)
	}
	if !qok {
		return false
	}
	qe.Fire(at)
	oe.Fire(at)
	if x.qGot[len(x.qGot)-1] != x.oGot[len(x.oGot)-1] {
		x.t.Fatalf("Pop fired event %d on the heap, %d on the oracle", x.qGot[len(x.qGot)-1], x.oGot[len(x.oGot)-1])
	}
	x.lastPop = at
	return true
}

// check compares the head's keys and the next sequence number.
func (x *equivalence) check() {
	qAt, qSeq, qOK := x.q.HeadKey()
	oAt, oSeq, oOK := x.o.HeadKey()
	if qAt != oAt || qSeq != oSeq || qOK != oOK {
		x.t.Fatalf("HeadKey diverged: heap (%v, %d, %v) oracle (%v, %d, %v)", qAt, qSeq, qOK, oAt, oSeq, oOK)
	}
	if got := x.q.NextTime(); got != oAt {
		x.t.Fatalf("NextTime %v, oracle head at %v", got, oAt)
	}
	if q, o := x.q.NextSeq(), x.o.seq; q != o {
		x.t.Fatalf("NextSeq diverged: heap %d oracle %d", q, o)
	}
}

// drainAll pops both sides empty and requires the same fired sequence.
func (x *equivalence) drainAll() {
	for x.pop() {
		x.check()
	}
	if len(x.qGot) != x.id || len(x.oGot) != x.id {
		x.t.Fatalf("fired %d events on the heap, %d on the oracle, of %d scheduled", len(x.qGot), len(x.oGot), x.id)
	}
}

// FuzzQueueEquivalence drives the heap Queue and the scan oracle with
// one op stream — schedule at a fuzzer-chosen delta from the last
// popped instant (zero deltas make same-instant ties), reserve a
// sequence number, pop one, pop a burst — and requires the same pops,
// HeadKey, NextTime and NextSeq after every op. With the uniqueness of
// (at, seq) this is the proof that the heap pops the order's minimum,
// and that a caller ordering its own event against HeadKey and NextSeq
// sees the keys the order gives it.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 2, 0, 1, 2, 2, 2})
	f.Add([]byte{0, 200, 3, 0, 5, 1, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		x := &equivalence{t: t}
		for i := 0; i < len(data); i++ {
			switch data[i] % 4 {
			case 0: // schedule; the next byte is the delta, stretched on two of three values
				i++
				if i >= len(data) {
					break
				}
				d := simtime.Duration(data[i])
				switch data[i] % 3 {
				case 1:
					d *= simtime.Microsecond
				case 2:
					d *= simtime.Millisecond
				}
				x.schedule(x.lastPop.Add(d))
			case 1:
				x.reserve()
			case 2:
				x.pop()
			case 3:
				for j := 0; j < 4 && x.pop(); j++ {
				}
			}
			x.check()
		}
		x.drainAll()
	})
}

// TestQueueEquivalenceRandom is the always-on cousin of
// FuzzQueueEquivalence: long random op streams on every `go test` run,
// leaning toward schedules so the queue runs deep, with deltas from
// 0 ns to tens of seconds.
func TestQueueEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		x := &equivalence{t: t}
		for i := 0; i < 4096; i++ {
			switch op := r.Intn(16); {
			case op < 9:
				x.schedule(x.lastPop.Add(simtime.Duration(r.Intn(256)) << uint(r.Intn(28))))
			case op < 10:
				x.reserve()
			default:
				x.pop()
			}
			x.check()
		}
		if x.maxDepth < 64 {
			t.Fatalf("seed %d: queue peaked at %d events; the stream should run it deeper", seed, x.maxDepth)
		}
		x.drainAll()
	}
}

// BenchmarkSchedulePop is the raw queue hot path: one schedule, one
// HeadKey and one pop per iteration against a warm queue held at a
// standing depth. The depths are the mean queue depths the simulator
// runs at: about 4 on campaign-short and campaign-long, 20 on
// campaign-modern and suite-quick, and 256 on the full-size suite.
// Each event is scheduled a depth's worth of spacing past the last, so
// the queue stays at its depth and every pop takes the oldest event.
func BenchmarkSchedulePop(b *testing.B) {
	for _, depth := range []int{4, 20, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			const spacing = 250 * simtime.Microsecond
			var q Queue
			fn := func(simtime.Time) {}
			at := simtime.Time(0)
			for i := 0; i < depth; i++ {
				q.Schedule(at, fn)
				at = at.Add(spacing)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Schedule(at, fn)
				at = at.Add(spacing)
				q.HeadKey()
				q.Pop()
			}
		})
	}
}
