package eventq

import (
	"latlab/internal/simtime"
)

// Event is a popped event: the instant it was scheduled for and its
// callback. It is a value; popping performs no allocation.
type Event struct {
	at simtime.Time
	fn func(now simtime.Time)
}

// At returns the instant the event was scheduled to fire.
func (e Event) At() simtime.Time { return e.at }

// Fire invokes the event's callback at instant now. It is split from Pop
// so the simulator can update its clock between the two.
func (e Event) Fire(now simtime.Time) { e.fn(now) }

// Handle identifies a scheduled event for cancellation. The zero Handle
// is invalid. Handles are values; holding one does not keep anything
// alive, and using a handle after its event fired is detected via a
// generation check (the methods then report a dead event).
type Handle struct {
	q    *Queue
	at   simtime.Time
	slot int32
	gen  uint32
}

// Valid reports whether the handle refers to a queue at all (the zero
// Handle does not).
func (h Handle) Valid() bool { return h.q != nil }

// At returns the instant the event was scheduled to fire.
func (h Handle) At() simtime.Time { return h.at }

// Cancel marks the event so it will be skipped when it reaches the head
// of the queue. Cancelling an already-fired or already-cancelled event is
// a no-op.
func (h Handle) Cancel() {
	if h.q != nil && h.q.tickets[h.slot].gen == h.gen {
		h.q.tickets[h.slot].cancelled = true
		h.q.cal.memoOK = false
	}
}

// Cancelled reports whether Cancel has been called on the event (false
// once the event has fired or been discarded).
func (h Handle) Cancelled() bool {
	return h.q != nil && h.q.tickets[h.slot].gen == h.gen && h.q.tickets[h.slot].cancelled
}

// entry is one scheduled event inside a calendar bucket, stored by
// value.
type entry struct {
	at   simtime.Time
	seq  uint64
	slot int32
	fn   func(now simtime.Time)
}

// ticket carries the cancellation flag for one in-flight event. Slots are
// recycled through a free list; gen disambiguates reuse so stale Handles
// are inert.
type ticket struct {
	gen       uint32
	cancelled bool
}

// Queue is a deterministic priority queue of events on a calendar
// (bucket) layout; see calendar.go. The zero value is an empty queue
// ready for use: the bucket ring is allocated by the first Schedule.
// Pops follow the total order (at, seq), and seq is unique, so the order
// never depends on the layout. Queue is not safe for concurrent use; the
// simulator is single-threaded by construction.
type Queue struct {
	seq     uint64
	tickets []ticket
	free    []int32
	cal     calendar
}

// Grow pre-sizes the ticket slab for at least n concurrently scheduled
// events. It does not size the calendar buckets: each bucket grows by
// append the first time it holds more entries than it ever has, so a
// queue stops allocating once every bucket has reached its steady-state
// depth.
func (q *Queue) Grow(n int) {
	if cap(q.tickets) < n {
		t := make([]ticket, len(q.tickets), n)
		copy(t, q.tickets)
		q.tickets = t
	}
}

// Schedule enqueues fn to run at instant at and returns a handle that can
// cancel it. Scheduling in the past is the caller's bug and panics, since
// it would silently corrupt causality.
func (q *Queue) Schedule(at simtime.Time, fn func(now simtime.Time)) Handle {
	if fn == nil {
		panic("eventq: nil event function")
	}
	if q.cal.buckets == nil {
		q.cal.init()
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.tickets[slot].cancelled = false
	} else {
		slot = int32(len(q.tickets))
		q.tickets = append(q.tickets, ticket{})
	}
	q.cal.schedule(entry{at: at, seq: q.seq, slot: slot, fn: fn})
	q.seq++
	return Handle{q: q, at: at, slot: slot, gen: q.tickets[slot].gen}
}

// Len returns the number of events still enqueued, including cancelled
// events that have not yet been skipped.
func (q *Queue) Len() int { return q.cal.count }

// Empty reports whether no live events remain. It discards any cancelled
// events at the head of the queue.
func (q *Queue) Empty() bool {
	_, _, ok := q.cal.minLocate(q)
	return !ok
}

// NextTime returns the firing time of the earliest live event, or
// simtime.Never when the queue is empty.
func (q *Queue) NextTime() simtime.Time {
	c := &q.cal
	if c.memoOK { // skip the scan when the cached minimum is live
		return c.buckets[c.memoP][c.memoI].at
	}
	p, i, ok := c.minLocate(q)
	if !ok {
		return simtime.Never
	}
	return c.buckets[p][i].at
}

// Pop removes and returns the earliest live event; ok is false when the
// queue is empty.
func (q *Queue) Pop() (e Event, ok bool) {
	c := &q.cal
	p, i, ok := c.memoP, c.memoI, c.memoOK
	if !ok {
		if p, i, ok = c.minLocate(q); !ok {
			return Event{}, false
		}
	}
	head := c.removeAt(q, p, i)
	return Event{at: head.at, fn: head.fn}, true
}

// release recycles a ticket slot, invalidating outstanding Handles to it.
func (q *Queue) release(slot int32) {
	q.tickets[slot].gen++
	q.tickets[slot].cancelled = false
	q.free = append(q.free, slot)
}
