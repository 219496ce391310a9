// Package trace defines the record types produced by latlab's measurement
// instruments, mirroring the paper's trace-record design: the idle loop
// emits one record per millisecond of idle time, and the message-API
// monitor logs every GetMessage/PeekMessage interaction. It also reads
// and writes the CSV formats cmd/traceview consumes. Records are not
// kept here: the idle loop folds its samples into busy spans as it makes
// them and stores them only on request (core.IdleLoop.Record).
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
