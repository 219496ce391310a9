// Package trace defines the record types produced by latlab's measurement
// instruments and a bounded in-memory buffer to hold them, mirroring the
// paper's trace-record design: the idle loop emits one record per
// millisecond of idle time, and the message-API monitor logs every
// GetMessage/PeekMessage interaction.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"latlab/internal/simtime"
)

// IdleSample is one record from the idle-loop instrumentation: the loop
// completed a calibrated 1 ms busy-wait at Done, and the iteration took
// Elapsed of wall (simulated) time. Elapsed - 1ms is time stolen by
// non-idle activity (paper §2.3, Fig. 1).
type IdleSample struct {
	Done    simtime.Time
	Elapsed simtime.Duration
}

// Stolen returns the non-idle time observed during the sample: the
// elongation of the calibrated loop beyond its idle-time cost.
func (s IdleSample) Stolen(loop simtime.Duration) simtime.Duration {
	st := s.Elapsed - loop
	if st < 0 {
		return 0
	}
	return st
}

// Utilization returns the average CPU utilization over the sample
// interval, per the paper's formula: (elapsed - idle) / elapsed.
func (s IdleSample) Utilization(loop simtime.Duration) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	u := float64(s.Elapsed-loop) / float64(s.Elapsed)
	if u < 0 {
		return 0
	}
	return u
}

// MsgAPI identifies which message-retrieval entry point a record logs.
type MsgAPI uint8

// Message-API entry points (paper §2.4).
const (
	GetMessage MsgAPI = iota
	PeekMessage
)

// String returns the Win32-style name of the API.
func (a MsgAPI) String() string {
	switch a {
	case GetMessage:
		return "GetMessage"
	case PeekMessage:
		return "PeekMessage"
	default:
		return fmt.Sprintf("MsgAPI(%d)", uint8(a))
	}
}

// MsgRecord logs one interaction with the message API. For GetMessage,
// Call..Return spans any blocking wait; for PeekMessage the two are equal
// unless the queue lock was contended. Received reports whether a message
// was returned; for GetMessage it is always true.
type MsgRecord struct {
	API      MsgAPI
	Call     simtime.Time
	Return   simtime.Time
	Received bool
	// Kind is the message identifier (apps package message kinds); only
	// meaningful when Received. It is carried as an opaque int so trace
	// stays at the bottom of the dependency graph.
	Kind int
	// Enqueued is when the returned message entered the queue — for
	// hardware input, the interrupt time. Latency measured from here
	// captures queue wait, which conventional in-application timestamps
	// miss (the Fig. 1 discrepancy).
	Enqueued simtime.Time
	// QueueLen is the queue length observed after the call completed.
	QueueLen int
	// Thread identifies the calling thread.
	Thread int
}

// Buffer accumulates idle samples up to a fixed capacity, modelling the
// paper's "while (space_left_in_the_buffer)" trace buffer. A full buffer
// stops accepting samples rather than wrapping: losing the *end* of a run
// is detectable, silent overwrite is not.
type Buffer struct {
	samples []IdleSample
	cap     int
	dropped int
}

// bufferPreSize bounds the eager allocation of a new Buffer. Buffers are
// usually given a generous capacity as an overflow bound, then filled
// far below it; pre-sizing to min(capacity, bufferPreSize) removes the
// early growth reallocations without committing the full bound up front.
const bufferPreSize = 4096

// NewBuffer returns a buffer holding at most capacity samples.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive buffer capacity")
	}
	pre := capacity
	if pre > bufferPreSize {
		pre = bufferPreSize
	}
	return &Buffer{cap: capacity, samples: make([]IdleSample, 0, pre)}
}

// NewBufferBacked returns a buffer holding at most capacity samples
// that records into the caller's backing array from its start and grows
// it by append once its own capacity is spent, so the array ends up
// sized to what was recorded rather than to the bound. The backing may
// be empty or nil. The campaign engine keeps one arena per machine slot
// and hands it to each session in turn; Samples()[:0] is the grown
// array to keep for the next.
func NewBufferBacked(backing []IdleSample, capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive buffer capacity")
	}
	return &Buffer{cap: capacity, samples: backing[:0]}
}

// Append records a sample; it returns false (and counts a drop) when full.
func (b *Buffer) Append(s IdleSample) bool {
	if len(b.samples) >= b.cap {
		b.dropped++
		return false
	}
	b.samples = append(b.samples, s)
	return true
}

// Full reports whether the buffer has reached capacity.
func (b *Buffer) Full() bool { return len(b.samples) >= b.cap }

// Cap returns the buffer's fixed capacity.
func (b *Buffer) Cap() int { return b.cap }

// Dropped returns the number of samples rejected after the buffer filled.
func (b *Buffer) Dropped() int { return b.dropped }

// Samples returns the recorded samples. The returned slice aliases the
// buffer; callers must not modify it.
func (b *Buffer) Samples() []IdleSample { return b.samples }

// Len returns the number of recorded samples.
func (b *Buffer) Len() int { return len(b.samples) }

// Reset discards all samples and the drop count.
func (b *Buffer) Reset() { b.samples = b.samples[:0]; b.dropped = 0 }

// appendMs appends v with six decimal places, the CSV fixed-point
// format. strconv.AppendFloat writes into the caller's buffer, so the
// CSV writers allocate nothing per row; the output is byte-identical to
// fmt's %.6f (both round via strconv).
func appendMs(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'f', 6, 64)
}

// WriteIdleCSV writes samples as CSV with a header row:
// done_ms,elapsed_ms — the format cmd/traceview consumes.
func WriteIdleCSV(w io.Writer, samples []IdleSample) error {
	if _, err := io.WriteString(w, "done_ms,elapsed_ms\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for _, s := range samples {
		buf = buf[:0]
		buf = appendMs(buf, s.Done.Milliseconds())
		buf = append(buf, ',')
		buf = appendMs(buf, s.Elapsed.Milliseconds())
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ParseIdleCSV parses the format written by WriteIdleCSV.
func ParseIdleCSV(r io.Reader) ([]IdleSample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "done_ms,elapsed_ms" {
		return nil, fmt.Errorf("trace: missing idle CSV header")
	}
	var out []IdleSample
	for i, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var doneMs, elapsedMs float64
		if _, err := fmt.Sscanf(line, "%f,%f", &doneMs, &elapsedMs); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", i+2, err)
		}
		out = append(out, IdleSample{
			Done:    simtime.Time(simtime.FromMillis(doneMs)),
			Elapsed: simtime.FromMillis(elapsedMs),
		})
	}
	return out, nil
}
