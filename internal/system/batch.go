package system

import "latlab/internal/trace"

// Batch holds sessions in slots and drives each open one in slot order.
// It interleaves nothing: campaigns drive one session at a time.
//
// Deprecated: kept only because the benchmark module (bench/) still
// steps its traced campaign replica through it.
type Batch struct {
	sessions []interface{ Drive() }
}

// NewBatch makes an empty batch with n slots.
//
// Deprecated: see Batch.
func NewBatch(n int) *Batch {
	if n < 1 {
		panic("system: batch size must be positive")
	}
	return &Batch{sessions: make([]interface{ Drive() }, n)}
}

// Arena returns nil: sessions store no idle samples.
//
// Deprecated: kept only because the benchmark module (bench/) still
// passes it to experiments.Config.IdleArena, which nothing reads.
func (b *Batch) Arena(slot int) *[]trace.IdleSample { return nil }

// Open installs s in the given slot.
//
// Deprecated: see Batch.
func (b *Batch) Open(slot int, s interface{ Drive() }) {
	if b.sessions[slot] != nil {
		panic("system: batch slot already open")
	}
	b.sessions[slot] = s
}

// Run drives every open session to completion, in slot order.
//
// Deprecated: see Batch.
func (b *Batch) Run() {
	for _, s := range b.sessions {
		if s != nil {
			s.Drive()
		}
	}
}

// Reset empties every slot.
//
// Deprecated: see Batch.
func (b *Batch) Reset() { clear(b.sessions) }
