// Package disk models the experimental machine's SCSI disk (paper §2.1:
// a dedicated 1 GB Fujitsu M1606SAU behind an NCR825 host adapter).
//
// The model is positional: a request's service time is seek (proportional
// to cylinder distance, with a settle floor) + rotational latency
// (deterministic pseudo-random phase) + transfer. Requests are serviced
// one at a time from a FIFO queue, and completion is reported through a
// callback that the kernel turns into a completion interrupt. Disk time
// is where the paper's multi-second PowerPoint latencies (Table 1) come
// from, so the constants are calibrated to a mid-90s 5400 RPM drive.
package disk

import (
	"fmt"

	"latlab/internal/machine"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/spans"
)

// Scheduler is the slice of the simulator the disk needs: the current
// time and the ability to run a callback after a delay. The kernel
// implements it.
type Scheduler interface {
	Now() simtime.Time
	After(d simtime.Duration, fn func(now simtime.Time))
}

// The driver's retry policy: a transfer that fails with a transient
// media error is re-attempted up to maxRetries times before the error
// reaches the caller, after retryBackoff and then double the previous
// delay each time (exponential backoff), modelling the
// recalibrate-and-retry loops behind the paper's multi-second
// PowerPoint disk stalls (Table 1). Only a fault model makes a transfer
// fail.
const (
	maxRetries   = 4
	retryBackoff = 3 * simtime.Millisecond
)

// Op distinguishes reads from writes. The service-time model treats them
// identically; the distinction feeds traces and counters.
type Op uint8

// Operations.
const (
	Read Op = iota
	Write
)

// Request is one disk operation. Done is invoked exactly once, at
// completion time, from simulator context. err is nil on success; a
// request whose every attempt failed under an installed fault model
// completes with a *MediaError instead of panicking — device trouble is
// an outcome, not a simulator bug.
type Request struct {
	Op     Op
	Block  int64
	Blocks int64
	Done   func(now simtime.Time, err error)
}

// MediaError reports a transfer whose attempts were all rejected by the
// media. It is the error surfaced through Request.Done after the driver
// exhausts its retry budget.
type MediaError struct {
	Op       Op
	Block    int64
	Attempts int
}

// Error implements error.
func (e *MediaError) Error() string {
	op := "read"
	if e.Op == Write {
		op = "write"
	}
	return fmt.Sprintf("disk: unrecoverable media error (%s block %d after %d attempts)", op, e.Block, e.Attempts)
}

// FaultModel is the disk's view of the fault-injection layer
// (internal/faults). All methods are consulted from simulator context;
// implementations must be deterministic for a given seed. A nil model
// (the default) leaves every transfer nominal.
type FaultModel interface {
	// ServiceFactor returns the degraded service-time multiplier in
	// effect at t; 1 means nominal.
	ServiceFactor(t simtime.Time) float64
	// StallUntil returns the instant before which the device cannot
	// start a transfer at t (a frozen/recalibrating drive); returns a
	// time <= t when the device is not stalled.
	StallUntil(t simtime.Time) simtime.Time
	// AttemptFails reports whether the media attempt finishing at t
	// fails with a transient error (the driver then backs off and
	// retries).
	AttemptFails(op Op, block int64, t simtime.Time, attempt int) bool
}

// Disk is the drive model. Not safe for concurrent use.
type Disk struct {
	params machine.DiskGeometry
	sched  Scheduler
	rand   *rng.Source

	head    int64 // current block position
	busy    bool
	queue   []Request
	served  int64
	busyFor simtime.Duration

	fm        FaultModel
	retries   int64
	mediaErrs int64

	rec *spans.Recorder
}

// SetRecorder attaches a span recorder; nil restores the untraced path.
// Recording never perturbs the schedule: the same random draws happen in
// the same order with or without it.
func (d *Disk) SetRecorder(rec *spans.Recorder) { d.rec = rec }

// New creates a disk of the given geometry, driven by sched. The seed
// fixes the rotational-phase sequence so runs are reproducible.
func New(params machine.DiskGeometry, sched Scheduler, seed uint64) *Disk {
	return &Disk{params: params, sched: sched, rand: rng.New(seed)}
}

// Params returns the drive geometry.
func (d *Disk) Params() machine.DiskGeometry { return d.params }

// QueueLen returns the number of requests waiting (excluding the one in
// service).
func (d *Disk) QueueLen() int { return len(d.queue) }

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.busy }

// Served returns the number of completed requests.
func (d *Disk) Served() int64 { return d.served }

// BusyTime returns cumulative service time.
func (d *Disk) BusyTime() simtime.Duration { return d.busyFor }

// SetFaults installs (or, with nil, removes) the fault model. With no
// model no transfer stalls, slows or fails, and the drive draws nothing
// beyond each transfer's rotational phase.
func (d *Disk) SetFaults(fm FaultModel) { d.fm = fm }

// Retries returns the number of re-attempted transfers.
func (d *Disk) Retries() int64 { return d.retries }

// MediaErrors returns the number of requests completed with an error
// after the retry budget was exhausted.
func (d *Disk) MediaErrors() int64 { return d.mediaErrs }

// ServiceTime computes the time to service a request from the current
// head position, without side effects on queue state. Exposed for tests
// and capacity planning.
func (d *Disk) ServiceTime(r Request, rotFrac float64) simtime.Duration {
	ctrl, seek, rot, xfer := d.serviceParts(r, rotFrac)
	return ctrl + seek + rot + xfer
}

// serviceParts decomposes the service time of r into its mechanical
// components from the current head position. ServiceTime is their sum;
// the span layer records them individually.
func (d *Disk) serviceParts(r Request, rotFrac float64) (ctrl, seek, rot, xfer simtime.Duration) {
	dist := r.Block - d.head
	if dist < 0 {
		dist = -dist
	}
	cyl := dist / d.params.BlocksPerCylinder
	if cyl > 0 {
		seek = d.params.SeekSettle + simtime.Duration(cyl)*d.params.SeekPerCylinder
		if seek > d.params.MaxSeek {
			seek = d.params.MaxSeek
		}
	}
	rot = simtime.Duration(rotFrac * float64(d.params.Rotation))
	xfer = simtime.Duration(r.Blocks) * d.params.TransferPerBlock
	return d.params.ControllerOverhead, seek, rot, xfer
}

// opLabel returns the stable trace label of an operation.
func opLabel(op Op) string {
	if op == Write {
		return "disk write"
	}
	return "disk read"
}

// recordService emits the span decomposition of one media attempt that
// starts at start, stalls for stall, and then services for svc. The
// parts are laid out sequentially (stall, controller, seek, rotation,
// transfer); any service time beyond the nominal mechanical sum is the
// degraded-mode surcharge from fault injection.
func (d *Disk) recordService(r Request, rotFrac float64, start simtime.Time, stall, svc simtime.Duration) {
	ctrl, seek, rot, xfer := d.serviceParts(r, rotFrac)
	label := opLabel(r.Op)
	io := d.rec.BeginAt(spans.CauseDiskIO, label, start)
	t := start
	part := func(c spans.Cause, dur simtime.Duration, count int64) {
		if dur == 0 && count == 0 {
			return
		}
		d.rec.ChargeSpan(c, label, t, t.Add(dur), 0, count)
		t = t.Add(dur)
	}
	part(spans.CauseDiskStall, stall, 0)
	part(spans.CauseDiskCtrl, ctrl, 0)
	part(spans.CauseDiskSeek, seek, 0)
	part(spans.CauseDiskRot, rot, 0)
	part(spans.CauseDiskXfer, xfer, r.Blocks)
	if extra := svc - (ctrl + seek + rot + xfer); extra > 0 {
		part(spans.CauseDiskDegraded, extra, 0)
	}
	d.rec.EndAt(io, t)
}

// Submit enqueues a request. It panics on malformed requests — a
// simulation that issues bad I/O is broken, not unlucky.
func (d *Disk) Submit(r Request) {
	if r.Done == nil {
		panic("disk: request without completion callback")
	}
	if r.Blocks <= 0 || r.Block < 0 || r.Block+r.Blocks > d.params.Blocks {
		panic("disk: request outside device")
	}
	d.queue = append(d.queue, r)
	if !d.busy {
		d.startNext()
	}
}

func (d *Disk) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	r := d.queue[0]
	d.queue = d.queue[1:]
	d.busy = true
	d.startAttempt(r, 0)
}

// startAttempt services r. Under an installed fault model the transfer
// may start late (device stall), run slow (degraded service factor), and
// fail at completion (transient media error), in which case the driver
// backs off exponentially and re-attempts up to maxRetries times before
// surfacing a *MediaError. The head still moves — a failed transfer
// still sought and spun.
func (d *Disk) startAttempt(r Request, attempt int) {
	now := d.sched.Now()
	delay, factor := simtime.Duration(0), 1.0
	if d.fm != nil {
		if until := d.fm.StallUntil(now); until > now {
			delay = until.Sub(now)
		}
		factor = d.fm.ServiceFactor(now.Add(delay))
	}
	rotFrac := d.rand.Float64()
	svc := d.ServiceTime(r, rotFrac)
	if factor > 1 {
		svc = simtime.Duration(float64(svc) * factor)
	}
	if d.rec != nil {
		d.recordService(r, rotFrac, now, delay, svc)
	}
	d.busyFor += svc
	d.head = r.Block + r.Blocks
	d.sched.After(delay+svc, func(now simtime.Time) {
		if d.fm != nil && d.fm.AttemptFails(r.Op, r.Block, now, attempt) {
			if attempt < maxRetries {
				d.retries++
				backoff := retryBackoff << uint(attempt)
				d.rec.ChargeSpan(spans.CauseDiskRetry, opLabel(r.Op), now, now.Add(backoff), 0, 1)
				d.sched.After(backoff, func(simtime.Time) {
					d.startAttempt(r, attempt+1)
				})
				return
			}
			d.mediaErrs++
			d.served++
			d.startNext()
			r.Done(now, &MediaError{Op: r.Op, Block: r.Block, Attempts: attempt + 1})
			return
		}
		d.served++
		// Start the next transfer before delivering the completion so a
		// Done callback that submits more I/O sees a consistent queue.
		d.startNext()
		r.Done(now, nil)
	})
}
