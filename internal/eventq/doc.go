// Package eventq implements the discrete-event queue at the heart of
// the latlab simulator.
//
// Events are ordered by (time, sequence number): two events scheduled
// for the same instant fire in the order they were scheduled, which
// keeps the whole simulation deterministic. Cancellation is lazy — a
// cancelled event stays queued but is skipped when its bucket is
// scanned — so cancel is O(1) and the queue never needs to locate
// arbitrary entries.
//
// The queue is a calendar queue (calendar.go): a ring of time buckets
// tuned for the simulator's dense-timer regime, with an overflow list
// for events beyond the ring's horizon. It is laid over one node slab:
// each node holds its event, its link in a bucket or the overflow list,
// and its cancellation ticket, and the ring is a fixed array of list
// heads plus an occupancy bitset inside Queue. Released nodes are
// recycled through a free list, so a queue allocates only when its slab
// doubles to a new peak of queued events, and a warm queue schedules,
// cancels and pops without allocating. HeadKey and NextSeq expose the
// order's keys, so a caller can keep one event of its own beside the
// queue and fire it in its place in the order. A 4-ary heap in the
// package's tests is the oracle the calendar is fuzzed against
// (FuzzQueueEquivalence).
//
// Invariants:
//
//   - Total order. Pop returns events in strictly non-decreasing time;
//     equal times break by schedule order, never by memory layout or
//     map iteration, so replaying a run replays the exact schedule.
//   - No time travel. Pushing an event earlier than the last popped
//     time is the caller's bug; the queue does not rewind.
//   - Handles stay cheap. A Handle is a queue pointer, an instant, a
//     slot and a generation; using one after its node was recycled is
//     detected by the generation check rather than corrupting the
//     queue.
package eventq
