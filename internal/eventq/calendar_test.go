package eventq

import (
	"math/rand"
	"testing"

	"latlab/internal/simtime"
)

// bucket is one calendar bucket's width: the calendar tests space
// events by it so they exercise the ring, not a single bucket's scan.
const bucket = simtime.Time(1) << defaultCalendarShift

// horizon is the span the bucket ring covers; later events overflow.
const horizon = bucket * defaultCalendarBuckets

// TestCalendarOrdering pops events scheduled out of order across
// distinct buckets.
func TestCalendarOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30*bucket, func(simtime.Time) { got = append(got, 3) })
	q.Schedule(10*bucket, func(simtime.Time) { got = append(got, 1) })
	q.Schedule(20*bucket, func(simtime.Time) { got = append(got, 2) })
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}
}

// TestCalendarFIFOTieBreak schedules same-instant events beyond the
// horizon: they wait in the overflow list and must keep schedule order
// when they migrate into their bucket.
func TestCalendarFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(3*horizon+42, func(simtime.Time) { got = append(got, i) })
	}
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order at %d: %v", i, got[:i+1])
		}
	}
}

// TestCalendarCancel cancels an overflow entry: it must be skipped
// after migrating, not fire.
func TestCalendarCancel(t *testing.T) {
	var q Queue
	fired := false
	h := q.Schedule(2*horizon, func(simtime.Time) { fired = true })
	q.Schedule(2*horizon+bucket, func(simtime.Time) {})
	h.Cancel()
	if !h.Cancelled() {
		t.Fatalf("Cancelled() = false after Cancel")
	}
	if got := q.NextTime(); got != 2*horizon+bucket {
		t.Fatalf("NextTime = %v, want %v (cancelled head skipped)", got, 2*horizon+bucket)
	}
	if e, ok := q.Pop(); !ok || e.At() != 2*horizon+bucket {
		t.Fatalf("Pop returned wrong event")
	}
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if !q.Empty() {
		t.Fatalf("queue should be empty")
	}
}

// TestCalendarOverflow schedules far beyond the bucket horizon and
// interleaves in-window events, checking the overflow list migrates in
// order as the cursor advances.
func TestCalendarOverflow(t *testing.T) {
	var q Queue
	var got []simtime.Time
	want := []simtime.Time{
		5, horizon - 1, horizon + 7, 2 * horizon, 2*horizon + 1, 10 * horizon,
	}
	// Schedule shuffled.
	for _, at := range []simtime.Time{2 * horizon, 5, 10 * horizon, horizon + 7, horizon - 1, 2*horizon + 1} {
		q.Schedule(at, func(simtime.Time) {})
	}
	for !q.Empty() {
		e, _ := q.Pop()
		got = append(got, e.At())
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestCalendarEarlyAfterAdvance pops the cursor forward, then schedules
// an event for an earlier instant (still legal — eventq has no clock);
// the clamped entry must still pop first.
func TestCalendarEarlyAfterAdvance(t *testing.T) {
	var q Queue
	far := 100 * bucket
	q.Schedule(far, func(simtime.Time) {})
	q.Schedule(far+10, func(simtime.Time) {})
	if e, _ := q.Pop(); e.At() != far {
		t.Fatalf("first pop %v, want %v", e.At(), far)
	}
	// The cursor now sits at far's bucket; schedule before it.
	q.Schedule(5, func(simtime.Time) {})
	if got := q.NextTime(); got != 5 {
		t.Fatalf("NextTime = %v, want 5 (clamped early entry)", got)
	}
	if e, _ := q.Pop(); e.At() != 5 {
		t.Fatalf("clamped entry did not pop first")
	}
	if e, _ := q.Pop(); e.At() != far+10 {
		t.Fatalf("tail entry lost")
	}
}

// TestCalendarSchedulePopAllocFree: at steady state (bucket slices
// grown, no overflow churn) the calendar push/pop path must be
// allocation-free.
func TestCalendarSchedulePopAllocFree(t *testing.T) {
	var q Queue
	q.Grow(64)
	fn := func(simtime.Time) {}
	var at simtime.Time
	step := func() {
		at = at.Add(10 * simtime.Microsecond)
		q.Schedule(at, fn)
		q.Schedule(at+5, fn)
		q.Pop()
		q.Pop()
	}
	for i := 0; i < 4096; i++ { // warm every bucket's slice through one full ring cycle
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Fatalf("calendar Schedule+Pop allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzQueueEquivalence drives the calendar Queue and the test-only heap
// oracle (heap_test.go) with one op stream — schedule (with fuzzer-chosen deltas, including ties and
// beyond-horizon jumps), cancel, pop — and requires identical NextTime
// after every op and an identical pop sequence, both instants and
// callback identities. Together with the uniqueness of (at, seq) this
// is the order-equivalence proof the calendar queue ships under.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 2, 0, 1, 2, 2, 2})
	f.Add([]byte{0, 200, 3, 0, 5, 1, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hq heapQueue
		var cq Queue
		var hGot, cGot []int
		type pair struct {
			h uint64
			c Handle
		}
		var live []pair
		id := 0
		at := simtime.Time(0)
		for i := 0; i < len(data); i++ {
			switch data[i] % 4 {
			case 0: // schedule at `at + delta`, deltas stretched to cross buckets and the horizon
				i++
				if i >= len(data) {
					break
				}
				d := simtime.Duration(data[i])
				switch data[i] % 3 {
				case 1:
					d *= simtime.Duration(bucket) // bucket-scale jumps
				case 2:
					d *= simtime.Duration(horizon) / 16 // horizon-scale jumps
				}
				when := at.Add(d)
				n := id
				id++
				h := hq.Schedule(when, func(simtime.Time) { hGot = append(hGot, n) })
				c := cq.Schedule(when, func(simtime.Time) { cGot = append(cGot, n) })
				live = append(live, pair{h, c})
			case 1: // cancel a fuzzer-chosen outstanding handle
				i++
				if i >= len(data) || len(live) == 0 {
					break
				}
				j := int(data[i]) % len(live)
				hq.Cancel(live[j].h)
				live[j].c.Cancel()
				if hq.Cancelled(live[j].h) != live[j].c.Cancelled() {
					t.Fatalf("Cancelled() diverged")
				}
				live = append(live[:j], live[j+1:]...)
			case 2: // pop
				he, hok := hq.Pop()
				ce, cok := cq.Pop()
				if hok != cok {
					t.Fatalf("Pop ok diverged: heap %v calendar %v", hok, cok)
				}
				if hok {
					if he.At() != ce.At() {
						t.Fatalf("Pop at diverged: heap %v calendar %v", he.At(), ce.At())
					}
					he.Fire(he.At())
					ce.Fire(ce.At())
					at = he.At() // advance the schedule base like a simulator clock
				}
			case 3: // pop-all burst to force cursor advances
				for j := 0; j < 4; j++ {
					he, hok := hq.Pop()
					ce, cok := cq.Pop()
					if hok != cok {
						t.Fatalf("burst Pop ok diverged")
					}
					if !hok {
						break
					}
					if he.At() != ce.At() {
						t.Fatalf("burst Pop at diverged: heap %v calendar %v", he.At(), ce.At())
					}
					he.Fire(he.At())
					ce.Fire(ce.At())
					at = he.At()
				}
			}
			if hn, cn := hq.NextTime(), cq.NextTime(); hn != cn {
				t.Fatalf("NextTime diverged: heap %v calendar %v", hn, cn)
			}
		}
		// Drain both and require the identical event identity sequence.
		for {
			he, hok := hq.Pop()
			ce, cok := cq.Pop()
			if hok != cok {
				t.Fatalf("drain ok diverged")
			}
			if !hok {
				break
			}
			if he.At() != ce.At() {
				t.Fatalf("drain at diverged")
			}
			he.Fire(he.At())
			ce.Fire(ce.At())
		}
		if len(hGot) != len(cGot) {
			t.Fatalf("fired %d events on heap, %d on calendar", len(hGot), len(cGot))
		}
		for i := range hGot {
			if hGot[i] != cGot[i] {
				t.Fatalf("fired order diverged at %d: heap %v calendar %v", i, hGot, cGot)
			}
		}
	})
}

// TestQueueEquivalenceRandom is the always-on cousin of
// FuzzQueueEquivalence: long random op streams on every `go test` run.
func TestQueueEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4096)
		r.Read(ops)
		var hq heapQueue
		var cq Queue
		at := simtime.Time(0)
		var live []uint64
		var liveC []Handle
		for i := 0; i < len(ops)-1; i += 2 {
			switch ops[i] % 3 {
			case 0:
				d := simtime.Duration(ops[i+1]) * simtime.Duration(1<<uint(ops[i+1]%24))
				when := at.Add(d)
				live = append(live, hq.Schedule(when, func(simtime.Time) {}))
				liveC = append(liveC, cq.Schedule(when, func(simtime.Time) {}))
			case 1:
				if len(live) > 0 {
					j := int(ops[i+1]) % len(live)
					hq.Cancel(live[j])
					liveC[j].Cancel()
					live = append(live[:j], live[j+1:]...)
					liveC = append(liveC[:j], liveC[j+1:]...)
				}
			case 2:
				he, hok := hq.Pop()
				ce, cok := cq.Pop()
				if hok != cok || (hok && he.At() != ce.At()) {
					t.Fatalf("seed %d: pop diverged", seed)
				}
				if hok {
					at = he.At()
				}
			}
			if hq.NextTime() != cq.NextTime() {
				t.Fatalf("seed %d: NextTime diverged", seed)
			}
		}
	}
}
