package system

import (
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// BatchSession is one machine's scripted run inside a Batch. A session
// exposes its milestone program as (NextTarget, OnTarget) pairs: the
// batch runs the machine to the target, the session executes its
// program step there and computes the next target. Machines are fully
// independent — each kernel has its own clock and event queue — so any
// stepping order yields the same per-session results; the batch steps
// them earliest-target-first to keep the cohort loosely in lockstep.
type BatchSession interface {
	// Sys returns the session's booted machine.
	Sys() *System
	// NextTarget returns the next simulated instant the session's
	// program needs control at, or simtime.Never once it has finished.
	NextTarget() simtime.Time
	// OnTarget executes the program step with the clock at the target.
	OnTarget()
}

// Batch steps up to Size independent machines as one unit on one
// worker. Per-machine state is struct-of-arrays — sessions, cached
// targets, and reusable sample arenas in parallel slices — so the
// stepping loop touches only small dense arrays between kernel runs.
// Slots are reused across waves of sessions and Reset keeps the arenas.
// An arena starts empty and grows by use, so a caller that keeps its
// batch allocates each slot's instrument buffer only while its sessions
// record more samples than any before them: campaign.RunCells hands
// each worker's batch from cell to cell, which amortises the arenas
// over every session the worker runs.
type Batch struct {
	sessions []BatchSession
	targets  []simtime.Time
	arenas   [][]trace.IdleSample
}

// NewBatch makes an empty batch with n slots.
func NewBatch(n int) *Batch {
	if n < 1 {
		panic("system: batch size must be positive")
	}
	return &Batch{
		sessions: make([]BatchSession, n),
		targets:  make([]simtime.Time, n),
		arenas:   make([][]trace.IdleSample, n),
	}
}

// Size returns the slot count.
func (b *Batch) Size() int { return len(b.sessions) }

// Arena returns a stable pointer to the slot's sample arena, empty
// until a session records into it. Callers hand it to the session's
// booter (experiments.Config.IdleArena), which records into it, grows
// it by append when a session records more than it holds, and writes
// the grown backing back at shutdown, so the slot keeps the largest
// backing any of its sessions needed.
func (b *Batch) Arena(slot int) *[]trace.IdleSample { return &b.arenas[slot] }

// Open installs s in the given slot.
func (b *Batch) Open(slot int, s BatchSession) {
	if b.sessions[slot] != nil {
		panic("system: batch slot already open")
	}
	b.sessions[slot] = s
	b.targets[slot] = s.NextTarget()
}

// Run drives every open session to completion: repeatedly pick the
// session with the earliest pending target, run its machine to that
// instant, execute its program step, and cache the new target. Returns
// when no session has a pending target.
func (b *Batch) Run() {
	for {
		best, at := -1, simtime.Never
		for i, s := range b.sessions {
			if s == nil {
				continue
			}
			if t := b.targets[i]; t < at {
				at, best = t, i
			}
		}
		if best < 0 || at == simtime.Never {
			return
		}
		s := b.sessions[best]
		s.Sys().K.Run(at)
		s.OnTarget()
		b.targets[best] = s.NextTarget()
	}
}

// Reset empties every slot for the next wave; arenas are retained.
func (b *Batch) Reset() {
	for i := range b.sessions {
		b.sessions[i] = nil
		b.targets[i] = 0
	}
}
