package eventq

import "latlab/internal/simtime"

// heapQueue is the 4-ary heap the Queue shipped on before the calendar
// became its only layout. It is kept, test-only, as the oracle that
// FuzzQueueEquivalence and TestQueueEquivalenceRandom hold the calendar
// to: a heap's pop order is obviously the (at, seq) minimum, so agreeing
// with it is the calendar's correctness proof. Events are identified by
// their seq, which is also the index into the cancelled/done flags.
type heapQueue struct {
	h         []heapEntry
	cancelled []bool
	done      []bool // fired or discarded
}

type heapEntry struct {
	at  simtime.Time
	seq uint64
	fn  func(now simtime.Time)
}

// Schedule enqueues fn at instant at and returns the event's seq.
func (q *heapQueue) Schedule(at simtime.Time, fn func(now simtime.Time)) uint64 {
	seq := uint64(len(q.done))
	q.cancelled = append(q.cancelled, false)
	q.done = append(q.done, false)
	q.h = append(q.h, heapEntry{at: at, seq: seq, fn: fn})
	q.siftUp(len(q.h) - 1)
	return seq
}

// Cancel marks a queued event; cancelling a fired one is a no-op.
func (q *heapQueue) Cancel(seq uint64) {
	if !q.done[seq] {
		q.cancelled[seq] = true
	}
}

// Cancelled mirrors Handle.Cancelled: true while a cancelled event is
// still queued.
func (q *heapQueue) Cancelled(seq uint64) bool { return q.cancelled[seq] && !q.done[seq] }

// NextTime returns the earliest live instant, or simtime.Never.
func (q *heapQueue) NextTime() simtime.Time {
	q.skipCancelled()
	if len(q.h) == 0 {
		return simtime.Never
	}
	return q.h[0].at
}

// HeadKey returns the earliest live event's (at, seq), or
// (simtime.Never, 0, false).
func (q *heapQueue) HeadKey() (simtime.Time, uint64, bool) {
	q.skipCancelled()
	if len(q.h) == 0 {
		return simtime.Never, 0, false
	}
	return q.h[0].at, q.h[0].seq, true
}

// NextSeq returns the seq the next Schedule will assign.
func (q *heapQueue) NextSeq() uint64 { return uint64(len(q.done)) }

// Pop removes and returns the earliest live event.
func (q *heapQueue) Pop() (Event, bool) {
	q.skipCancelled()
	if len(q.h) == 0 {
		return Event{}, false
	}
	head := q.popHead()
	return Event{at: head.at, fn: head.fn}, true
}

func (q *heapQueue) skipCancelled() {
	for len(q.h) > 0 && q.cancelled[q.h[0].seq] {
		q.popHead()
	}
}

func (q *heapQueue) popHead() heapEntry {
	head := q.h[0]
	q.done[head.seq] = true
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return head
}

func (q *heapQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *heapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) siftDown(i int) {
	n := len(q.h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}
