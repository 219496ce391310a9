package experiments

import (
	"fmt"

	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// This file is the one driver for scripted and completion-paced
// sessions. A session is opened (machine booted, input installed),
// stepped through a milestone program — a single Run(until) for
// typing, 500 ms poll slices then 2 s of trailing time for a
// completion-paced chain — and then reduced. drive steps it alone; a
// system.Batch steps many interleaved on one worker. The milestones are
// the same either way, so a session stepped inside a batch is
// byte-identical to one driven alone (TestBatchSessionEquivalence pins
// this).

// Session program kinds.
const (
	// sessOnce runs to a single precomputed end time (typing).
	sessOnce uint8 = iota
	// sessChain polls a completion-paced chain in 500 ms slices until
	// the chain reports done, then switches to sessTrailing.
	sessChain
	// sessTrailing runs the 2 s trailing quiescence after a chain.
	sessTrailing
)

// ScenarioSession is one opened, not-yet-finished scenario run: a
// booted machine plus the driver's milestone program. It implements
// system.BatchSession so a batch can step it; drive steps it alone.
type ScenarioSession struct {
	r      *rig
	label  string
	thread *kernel.Thread

	kind      uint8
	target    simtime.Time
	deadline  simtime.Time
	chainDone *simtime.Time
	finished  bool
	closed    bool

	// Result metadata, filled by OpenScenarioSession.
	docID   string
	banner  string
	persona string
	machine string
	seed    uint64
	plan    faults.Plan
}

// Sys implements system.BatchSession.
func (s *ScenarioSession) Sys() *system.System { return s.r.sys }

// NextTarget implements system.BatchSession: the next simulated
// instant the session's program needs control at, simtime.Never once
// the program has finished.
func (s *ScenarioSession) NextTarget() simtime.Time {
	if s.finished {
		return simtime.Never
	}
	return s.target
}

// OnTarget implements system.BatchSession: the machine's clock is at
// the target; execute the program step and compute the next target.
// A chain takes full 500 ms slices while it is unfinished and the
// deadline unreached, then one 2 s trailing slice so the FSM end
// matches the probe's last records.
func (s *ScenarioSession) OnTarget() {
	now := s.r.sys.K.Now()
	switch s.kind {
	case sessOnce, sessTrailing:
		s.finished = true
	case sessChain:
		if *s.chainDone != 0 {
			s.kind = sessTrailing
			s.target = now.Add(2 * simtime.Second)
			return
		}
		if now >= s.deadline {
			panic(fmt.Sprintf("experiments: chain did not complete by %v", s.deadline))
		}
		s.target = now.Add(500 * simtime.Millisecond)
	}
}

// drive runs the session's milestone program to completion alone and
// leaves the machine up for the caller to reduce and Close.
func (s *ScenarioSession) drive() {
	for !s.finished {
		s.r.sys.K.Run(s.target)
		s.OnTarget()
	}
}

// row extracts the driver's analysis row and releases the machine.
// The order does not matter: shutdown leaves the instrumentation
// readable, so the sequential path extracts first and a campaign wave
// closes every session before extracting any.
func (s *ScenarioSession) row() ExtFaultsRow {
	row := faultsRow(s.label, s.r, s.thread, s.r.sys.K.Now())
	s.Close()
	return row
}

// Close releases the session's machine. Idempotent: a batch closes
// every session of a wave once it has run (or once a sibling's open
// has failed), before calling Result.
func (s *ScenarioSession) Close() {
	if !s.closed {
		s.closed = true
		s.r.shutdown()
	}
}

// Result extracts the finished session's outcome — what the compiled
// Spec's Run returns for the same Config and Doc, which is this same
// session driven alone.
func (s *ScenarioSession) Result() *ScenarioResult {
	if !s.finished {
		panic("experiments: Result on an unfinished session")
	}
	return &ScenarioResult{
		DocID:   s.docID,
		Banner:  s.banner,
		Persona: s.persona,
		Machine: s.machine,
		Seed:    s.seed,
		Plan:    s.plan,
		Row:     s.row(),
	}
}

// OpenScenarioSession resolves doc against cfg exactly like the
// compiled Spec's Run and boots the session without running it. The
// caller steps it (directly or inside a system.Batch) until
// NextTarget returns simtime.Never, then calls Result. Compare
// scenarios have no single-session decomposition and are refused.
func OpenScenarioSession(cfg Config, doc scenario.Doc) (*ScenarioSession, error) {
	if len(doc.Compare) > 0 {
		return nil, fmt.Errorf("scenario %s: compare scenarios cannot run as batched sessions", doc.ID)
	}
	rs, err := resolveScenario(cfg, doc)
	if err != nil {
		return nil, err
	}
	s := rs.opener("run", rs.cfg, rs.sc, rs.plan)
	s.docID = doc.ID
	s.banner = doc.BannerOrTitle()
	s.persona = doc.Persona
	s.machine = rs.cfg.MachineProfile().Short
	s.seed = rs.cfg.Seed
	s.plan = rs.plan
	return s, nil
}
