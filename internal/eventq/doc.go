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
// for events beyond the ring's horizon. Entries are stored by value and
// cancellation state lives in a recycled ticket slab addressed by
// Handle, so a warm queue schedules and pops without allocating. Each
// bucket grows by append the first time it is used that deep; Grow only
// pre-sizes the ticket slab. A 4-ary heap in the package's tests is the
// oracle the calendar is fuzzed against (FuzzQueueEquivalence).
//
// Invariants:
//
//   - Total order. Pop returns events in strictly non-decreasing time;
//     equal times break by schedule order, never by memory layout or
//     map iteration, so replaying a run replays the exact schedule.
//   - No time travel. Pushing an event earlier than the last popped
//     time is the caller's bug; the queue does not rewind.
//   - Handles stay cheap. A Handle is two integers; using one after
//     its ticket was recycled is detected by generation check rather
//     than corrupting the queue.
package eventq
