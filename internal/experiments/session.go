package experiments

import (
	"fmt"

	"latlab/internal/core"
	"latlab/internal/faults"
	"latlab/internal/kernel"
	"latlab/internal/scenario"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// This file is the one driver for scripted and completion-paced
// sessions. A session is opened (machine booted, input installed),
// driven to the end of its program — a single Run(until) for typing,
// 500 ms poll slices then 2 s of trailing time for a completion-paced
// chain — and then reduced.

// ScenarioSession is one opened, not-yet-reduced scenario run: a
// booted machine plus the program Drive runs on it. Every session
// records the same way: its probe logs message-API calls and runs the
// think/wait FSM online for the application thread, so both Result and
// Events read any session.
type ScenarioSession struct {
	r      *rig
	label  string
	thread *kernel.Thread

	// end is where a typing session's single Run stops; a chain
	// (chainDone non-nil) instead polls until it completes, panicking
	// once the clock passes deadline.
	end       simtime.Time
	deadline  simtime.Time
	chainDone *simtime.Time
	closed    bool

	// Result metadata, filled by OpenScenarioSession.
	docID   string
	banner  string
	persona string
	machine string
	seed    uint64
	plan    faults.Plan
}

// Sys returns the session's booted machine.
func (s *ScenarioSession) Sys() *system.System { return s.r.sys }

// Drive runs the session's program to completion and leaves the
// machine up for the caller to reduce and Close. A typing session runs
// once to the end of its script plus trailing time. A chain takes full
// 500 ms slices while it is unfinished and the deadline unreached, then
// one 2 s trailing slice of quiescence, which the think/wait totals
// include.
func (s *ScenarioSession) Drive() {
	k := s.r.sys.K
	if s.chainDone == nil {
		k.Run(s.end)
		return
	}
	for {
		now := k.RunFor(500 * simtime.Millisecond)
		if *s.chainDone != 0 {
			break
		}
		if now >= s.deadline {
			panic(fmt.Sprintf("experiments: chain did not complete by %v", s.deadline))
		}
	}
	k.RunFor(2 * simtime.Second)
}

// row extracts the driver's analysis row and releases the machine.
func (s *ScenarioSession) row() ExtFaultsRow {
	row := faultsRow(s.label, s.r, s.thread, s.r.sys.K.Now())
	s.Close()
	return row
}

// Close releases the session's machine. Idempotent, so a caller can
// defer it and still read the session with Events or Result, which
// close it themselves. Shutdown leaves the instrumentation readable.
func (s *ScenarioSession) Close() {
	if !s.closed {
		s.closed = true
		s.r.shutdown()
	}
}

// Result extracts the driven session's outcome — what the compiled
// Spec's Run returns for the same Config and Doc — and releases the
// machine.
func (s *ScenarioSession) Result() *ScenarioResult {
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

// Events extracts the driven session's events — exactly
// Result().Row.Report.Events — and releases the machine. It skips the
// latency report and the rest of the row, which a campaign ledger never
// reads.
func (s *ScenarioSession) Events() []core.Event {
	events := s.r.extract(s.thread, true)
	s.Close()
	return events
}

// OpenScenarioSession resolves doc against cfg exactly like the
// compiled Spec's Run and boots the session without running it. The
// caller Drives it, then calls Result, or Events when it needs only the
// events. Compare scenarios have no single-session decomposition and
// are refused.
func OpenScenarioSession(cfg Config, doc scenario.Doc) (*ScenarioSession, error) {
	if len(doc.Compare) > 0 {
		return nil, fmt.Errorf("scenario %s: compare scenarios run one session per row and cannot open as one session", doc.ID)
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
