// Package eventq implements the discrete-event queue at the heart of
// the latlab simulator.
//
// Events are ordered by (time, sequence number): two events scheduled
// for the same instant fire in the order they were scheduled, which
// keeps the whole simulation deterministic.
//
// The queue is a binary min-heap of value events, sized to the traffic
// it serves: the kernel keeps the running chunk's completion and the
// clock tick beside it, so it holds a few to a few hundred timers,
// handler ends and device completions, and nothing is ever cancelled.
// It allocates only when the heap doubles to a new peak, so a warm
// queue schedules and pops without allocating. HeadKey and NextSeq
// expose the order's keys, so a caller can keep one event of its own
// beside the queue and fire it in its place in the order. The tests
// fuzz the heap against a linear scan over a plain slice
// (FuzzQueueEquivalence).
//
// Invariants:
//
//   - Total order. Pop returns events in strictly non-decreasing time;
//     equal times break by schedule order, never by memory layout or
//     map iteration, so replaying a run replays the exact schedule.
//   - No time travel. Scheduling an event earlier than the last popped
//     one is the caller's bug: the queue would pop it next, so the
//     kernel refuses it (Kernel.At).
package eventq
