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
	if h.q != nil && h.q.nodes[h.slot].gen == h.gen {
		h.q.nodes[h.slot].cancelled = true
		h.q.memoOK = false
	}
}

// Cancelled reports whether Cancel has been called on the event (false
// once the event has fired or been discarded).
func (h Handle) Cancelled() bool {
	return h.q != nil && h.q.nodes[h.slot].gen == h.gen && h.q.nodes[h.slot].cancelled
}

// node is one slot of the queue's slab. A queued node holds its event,
// its link in a bucket or the overflow list, and its cancellation
// ticket; a free node is linked into the free list. gen counts the
// slot's releases, so a Handle to an earlier occupant is inert.
type node struct {
	at        simtime.Time
	seq       uint64
	fn        func(now simtime.Time)
	next      int32 // next node in the same list; 0 ends it
	gen       uint32
	cancelled bool
}

// minSlab is the slab's first allocation, in nodes (the sentinel
// included); it doubles from there as the queue's peak grows.
const minSlab = 16

// Queue is a deterministic priority queue of events on a calendar
// (bucket) layout; see calendar.go. The zero value is an empty queue
// ready for use: its bucket heads and occupancy bitset are fixed arrays,
// and the first Schedule allocates the node slab. Pops follow the total
// order (at, seq), and seq is unique, so the order never depends on the
// layout. Queue is not safe for concurrent use; the simulator is
// single-threaded by construction.
type Queue struct {
	seq   uint64
	count int // queued nodes, including cancelled ones not yet skipped
	// nodes is the slab every queued event lives in. Node 0 is a
	// sentinel, so a zero link or list head means "none"; free heads
	// the list of released nodes.
	nodes []node
	free  int32
	calendar
}

// Schedule enqueues fn to run at instant at and returns a handle that can
// cancel it. Scheduling in the past is the caller's bug and panics, since
// it would silently corrupt causality.
func (q *Queue) Schedule(at simtime.Time, fn func(now simtime.Time)) Handle {
	if fn == nil {
		panic("eventq: nil event function")
	}
	i := q.alloc()
	n := &q.nodes[i]
	n.at, n.seq, n.fn = at, q.seq, fn
	q.seq++
	q.insert(i)
	q.count++
	return Handle{q: q, at: at, slot: i, gen: n.gen}
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
	s := q.seq
	q.seq++
	return s
}

// Len returns the number of events still enqueued, including cancelled
// events that have not yet been skipped.
func (q *Queue) Len() int { return q.count }

// Empty reports whether no live events remain. It discards any cancelled
// events at the head of the queue.
func (q *Queue) Empty() bool {
	_, ok := q.minLocate()
	return !ok
}

// NextTime returns the firing time of the earliest live event, or
// simtime.Never when the queue is empty.
func (q *Queue) NextTime() simtime.Time {
	at, _, _ := q.HeadKey()
	return at
}

// HeadKey returns the (time, sequence) key of the earliest live event,
// the key Pop would return it under; ok is false, and at is
// simtime.Never, when the queue is empty.
func (q *Queue) HeadKey() (at simtime.Time, seq uint64, ok bool) {
	i, ok := q.minLocate()
	if !ok {
		return simtime.Never, 0, false
	}
	return q.nodes[i].at, q.nodes[i].seq, true
}

// Pop removes and returns the earliest live event; ok is false when the
// queue is empty.
func (q *Queue) Pop() (e Event, ok bool) {
	i, ok := q.minLocate()
	if !ok {
		return Event{}, false
	}
	e = Event{at: q.nodes[i].at, fn: q.nodes[i].fn}
	q.unlinkMemo()
	q.release(i)
	q.count--
	return e, true
}

// alloc takes a node off the free list, or appends one to the slab,
// which doubles when full.
func (q *Queue) alloc() int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		return i
	}
	if q.nodes == nil {
		q.nodes = make([]node, 1, minSlab)
	}
	q.nodes = append(q.nodes, node{})
	return int32(len(q.nodes) - 1)
}

// release recycles node i onto the free list, invalidating outstanding
// Handles to it and dropping its callback so the slab keeps nothing
// alive.
func (q *Queue) release(i int32) {
	n := &q.nodes[i]
	n.gen++
	n.cancelled = false
	n.fn = nil
	n.next = q.free
	q.free = i
}
