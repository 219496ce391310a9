package eventq

import "latlab/internal/simtime"

// Event is a popped event's callback; its instant is the one HeadKey
// reported before the Pop. It is a value; popping performs no
// allocation.
type Event struct {
	fn func(now simtime.Time)
}

// Fire invokes the event's callback at instant now. It is split from Pop
// so the simulator can update its clock between the two.
func (e Event) Fire(now simtime.Time) { e.fn(now) }

// entry is one queued event under its key (at, seq).
type entry struct {
	at  simtime.Time
	seq uint64
	fn  func(now simtime.Time)
}

// before reports whether e pops before o in (at, seq) order.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// minCap is the heap's first allocation, in events.
const minCap = 16

// Queue is a deterministic priority queue of events: a binary min-heap
// of values in (at, seq) order, where seq is unique, so the pop order
// never depends on the heap's layout. The zero value is an empty queue.
// It is not safe for concurrent use; the simulator is single-threaded.
type Queue struct {
	h   []entry
	seq uint64
}

// Schedule enqueues fn to run at instant at. A nil fn is the caller's
// bug and panics.
func (q *Queue) Schedule(at simtime.Time, fn func(now simtime.Time)) {
	if fn == nil {
		panic("eventq: nil event function")
	}
	if q.h == nil {
		q.h = make([]entry, 0, minCap)
	}
	q.h = append(q.h, entry{at: at, seq: q.seq, fn: fn})
	q.seq++
	q.up(len(q.h) - 1)
}

// NextSeq returns the sequence number the next Schedule will assign.
// A caller that keeps an event of its own beside the queue orders it
// against the queued ones by comparing keys: an event it takes at
// (at, NextSeq()) sorts after everything scheduled so far and before
// everything scheduled later.
func (q *Queue) NextSeq() uint64 { return q.seq }

// ReserveSeq takes the sequence number the next Schedule would assign
// and returns it, for an event the caller keeps beside the queue: that
// event owns the number as a queued one would, and every later
// Schedule keys its event exactly as if the reserved one had been
// queued.
func (q *Queue) ReserveSeq() uint64 {
	q.seq++
	return q.seq - 1
}

// NextTime returns the firing time of the earliest event, or
// simtime.Never when the queue is empty.
func (q *Queue) NextTime() simtime.Time {
	at, _, _ := q.HeadKey()
	return at
}

// HeadKey returns the (time, sequence) key of the event Pop would
// remove next; ok is false, and at is simtime.Never, when the queue is
// empty.
func (q *Queue) HeadKey() (at simtime.Time, seq uint64, ok bool) {
	if len(q.h) == 0 {
		return simtime.Never, 0, false
	}
	return q.h[0].at, q.h[0].seq, true
}

// Pop removes and returns the earliest event; ok is false when the
// queue is empty.
func (q *Queue) Pop() (e Event, ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Event{}, false
	}
	e = Event{fn: q.h[0].fn}
	q.h[0] = q.h[n]
	q.h[n] = entry{} // the backing array keeps no callback alive
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return e, true
}

// up moves the entry at i toward the root until its parent pops first.
func (q *Queue) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = e
}

// down moves the entry at i toward the leaves until it pops before both
// of its children.
func (q *Queue) down(i int) {
	n := len(q.h)
	e := q.h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.h[r].before(&q.h[c]) {
			c = r
		}
		if !q.h[c].before(&e) {
			break
		}
		q.h[i] = q.h[c]
		i = c
	}
	q.h[i] = e
}
