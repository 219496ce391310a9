package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"latlab/internal/simtime"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func(simtime.Time) { got = append(got, 3) })
	q.Schedule(10, func(simtime.Time) { got = append(got, 1) })
	q.Schedule(20, func(simtime.Time) { got = append(got, 2) })
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
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

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	h := q.Schedule(10, func(simtime.Time) { fired = true })
	q.Schedule(20, func(simtime.Time) {})
	h.Cancel()
	if !h.Cancelled() {
		t.Fatalf("Cancelled() = false after Cancel")
	}
	if got := q.NextTime(); got != 20 {
		t.Fatalf("NextTime = %v, want 20 (cancelled head skipped)", got)
	}
	if e, ok := q.Pop(); !ok || e.At() != 20 {
		t.Fatalf("Pop returned wrong event")
	}
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if !q.Empty() {
		t.Fatalf("queue should be empty")
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
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("zero value should be empty")
	}
	var h Handle
	if h.Valid() || h.Cancelled() {
		t.Fatalf("zero Handle should be invalid and not cancelled")
	}
	h.Cancel() // must be a no-op, not a panic
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
	for !q.Empty() {
		e, _ := q.Pop()
		e.Fire(e.At())
	}
	want := []string{"a", "a-child", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestStaleHandleInert checks that a handle outliving its event cannot
// affect a later event that recycled the same ticket slot.
func TestStaleHandleInert(t *testing.T) {
	var q Queue
	h := q.Schedule(10, func(simtime.Time) {})
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	fired := false
	q.Schedule(20, func(simtime.Time) { fired = true })
	h.Cancel() // stale: must not cancel the recycled slot
	if h.Cancelled() {
		t.Fatalf("stale handle reports cancelled")
	}
	if e, ok := q.Pop(); !ok {
		t.Fatal("live event was skipped")
	} else {
		e.Fire(e.At())
	}
	if !fired {
		t.Fatalf("recycled-slot event did not fire")
	}
}

// TestGrowPreservesContents grows the node slab through several
// doublings while events, a cancellation and Handles are outstanding:
// the moved nodes keep their order, their callbacks and their tickets.
func TestGrowPreservesContents(t *testing.T) {
	var q Queue
	var got []int
	var handles []Handle
	const n = 10 * minSlab
	for i := 0; i < n; i++ {
		i := i
		handles = append(handles, q.Schedule(simtime.Time(n-i)*bucket/4, func(simtime.Time) { got = append(got, i) }))
		if i == 3 {
			handles[3].Cancel()
		}
	}
	if !handles[3].Cancelled() || handles[4].Cancelled() {
		t.Fatalf("cancellation lost across slab growth")
	}
	var prev simtime.Time = -1
	for !q.Empty() {
		e, _ := q.Pop()
		if e.At() < prev {
			t.Fatalf("order broken after slab growth")
		}
		prev = e.At()
		e.Fire(e.At())
	}
	if len(got) != n-1 {
		t.Fatalf("fired %d events, want %d", len(got), n-1)
	}
	want := n - 1 // scheduled latest-first, so they fire in reverse
	for j, i := range got {
		if want == 3 {
			want-- // the cancelled one
		}
		if i != want {
			t.Fatalf("pop %d fired event %d, want %d", j, i, want)
		}
		want--
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

// TestCancelAllocFree: cancel plus the lazy skip must also be free.
func TestCancelAllocFree(t *testing.T) {
	var q Queue
	fn := func(simtime.Time) {}
	var at simtime.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at += 10
		h := q.Schedule(at, fn)
		q.Schedule(at+1, fn)
		h.Cancel()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel+Pop allocates %.1f times per run, want 0", allocs)
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
		var scheduled []rec
		var popped []rec
		for i := 0; i < int(n); i++ {
			at := simtime.Time(r.Intn(16)) // small range to force ties
			i := i
			q.Schedule(at, func(simtime.Time) {})
			scheduled = append(scheduled, rec{at, i})
			_ = i
		}
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, rec{e.At(), 0})
		}
		if len(popped) != len(scheduled) {
			return false
		}
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		for i := range popped {
			if popped[i].at != scheduled[i].at {
				return false
			}
			if i > 0 && popped[i].at < popped[i-1].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset never perturbs the relative
// order of the survivors.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		var handles []Handle
		var keepAt []simtime.Time
		for i := 0; i < int(n); i++ {
			at := simtime.Time(r.Intn(1000))
			handles = append(handles, q.Schedule(at, func(simtime.Time) {}))
		}
		for _, h := range handles {
			if r.Intn(2) == 0 {
				h.Cancel()
			} else {
				keepAt = append(keepAt, h.At())
			}
		}
		sort.Slice(keepAt, func(i, j int) bool { return keepAt[i] < keepAt[j] })
		var got []simtime.Time
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, e.At())
		}
		if len(got) != len(keepAt) {
			return false
		}
		for i := range got {
			if got[i] != keepAt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSchedulePop is the raw queue hot path: one push and one pop
// per iteration against a warm queue. Events are spaced at the
// simulator's density (hundreds of µs between completions and ticks) so
// entries spread across buckets; packing the whole queue into one bucket
// degenerates to a linear scan and is not the regime the simulator runs.
func BenchmarkSchedulePop(b *testing.B) {
	const spacing = 250 * simtime.Microsecond
	var q Queue
	fn := func(simtime.Time) {}
	for i := 0; i < 512; i++ {
		q.Schedule(simtime.Time(0).Add(simtime.Duration(i)*spacing), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := simtime.Time(0).Add(512 * spacing)
	for i := 0; i < b.N; i++ {
		q.Schedule(at, fn)
		at = at.Add(spacing)
		q.Pop()
	}
}
