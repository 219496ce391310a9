package core

import (
	"latlab/internal/kernel"
	"latlab/internal/simtime"
)

// Reference is what the reference FSM made of a recorded run, for
// tests outside the package.
type Reference struct {
	Think, Wait simtime.Duration
	Transitions int
	// Partition says how the reference log fails to split the run into
	// alternating spans that accrue Think and Wait; "" when it does not.
	Partition string
}

// RecordHooks installs a hook recorder as the hooks of k, which may
// already have fired some at the current instant, and returns a
// function that replays the recorded log through the reference FSM for
// thread app, finished at end. The replay starts from the inputs k held
// when the recorder went in: its outstanding synchronous I/O, app's
// queue length, and a CPU state read back from the first recorded busy
// change, since that hook fires only on a change.
func RecordHooks(k *kernel.Kernel, app *kernel.Thread) func(end simtime.Time) Reference {
	now, io, qlen := k.Now(), k.SyncIOOutstanding(), app.QueueLen()
	r := recordHooks(k)
	return func(end simtime.Time) Reference {
		log := []hookRecord{
			{hook: onSyncIO, at: now, n: io},
			{hook: onPost, at: now, thread: app.ID(), n: qlen},
		}
		for _, rec := range r.log {
			if rec.hook == onBusy {
				log = append(log, busyAt(rec.n == 0, now))
				break
			}
		}
		f := replayReference(append(log, r.log...), app.ID(), end)
		return Reference{Think: f.think, Wait: f.wait, Transitions: len(f.log), Partition: f.partition(end)}
	}
}
