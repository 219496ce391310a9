// Package trace defines the record types produced by latlab's measurement
// instruments and a bounded in-memory buffer to hold them, mirroring the
// paper's trace-record design: the idle loop emits one record per
// millisecond of idle time, and the message-API monitor logs every
// GetMessage/PeekMessage interaction.
package trace

import (
	"fmt"
	"io"
	"sort"
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

// CounterSnapshot pairs a label with hardware-counter readings taken
// around an operation (paper §2.2, Figs. 9-10).
type CounterSnapshot struct {
	Label  string
	Cycles int64
	Events map[string]int64
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

// parseMsgAPI inverts MsgAPI.String: the two Win32 names plus the
// MsgAPI(n) fallback for values outside the known set.
func parseMsgAPI(s string) (MsgAPI, error) {
	switch s {
	case "GetMessage":
		return GetMessage, nil
	case "PeekMessage":
		return PeekMessage, nil
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "MsgAPI(%d)", &n); err == nil && s == fmt.Sprintf("MsgAPI(%d)", n) {
		return MsgAPI(n), nil
	}
	return 0, fmt.Errorf("trace: unknown message API %q", s)
}

// WriteMsgCSV writes message records as CSV with a header row.
func WriteMsgCSV(w io.Writer, recs []MsgRecord) error {
	if _, err := io.WriteString(w, "api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	for _, r := range recs {
		buf = buf[:0]
		switch r.API {
		case GetMessage:
			buf = append(buf, "GetMessage"...)
		case PeekMessage:
			buf = append(buf, "PeekMessage"...)
		default:
			buf = append(buf, "MsgAPI("...)
			buf = strconv.AppendUint(buf, uint64(uint8(r.API)), 10)
			buf = append(buf, ')')
		}
		buf = append(buf, ',')
		buf = appendMs(buf, r.Call.Milliseconds())
		buf = append(buf, ',')
		buf = appendMs(buf, r.Return.Milliseconds())
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, r.Received)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Kind), 10)
		buf = append(buf, ',')
		buf = appendMs(buf, r.Enqueued.Milliseconds())
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.QueueLen), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Thread), 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// counterHeader is the header row of the counter-snapshot CSV format.
const counterHeader = "label,cycles,events"

// WriteCounterCSV writes snapshots as CSV with a header row:
// label,cycles,events. The events column is a semicolon-joined list of
// name=count pairs sorted by name, so the output is deterministic
// regardless of map iteration order. Labels must not contain commas or
// newlines, and event names must not contain ',', ';', '=' or newlines.
func WriteCounterCSV(w io.Writer, snaps []CounterSnapshot) error {
	if _, err := io.WriteString(w, counterHeader+"\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	var names []string
	for _, s := range snaps {
		if strings.ContainsAny(s.Label, ",\n") {
			return fmt.Errorf("trace: counter label %q contains a reserved character", s.Label)
		}
		names = names[:0]
		for name := range s.Events {
			if strings.ContainsAny(name, ",;=\n") {
				return fmt.Errorf("trace: counter event name %q contains a reserved character", name)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		buf = buf[:0]
		buf = append(buf, s.Label...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Cycles, 10)
		buf = append(buf, ',')
		for i, name := range names {
			if i > 0 {
				buf = append(buf, ';')
			}
			buf = append(buf, name...)
			buf = append(buf, '=')
			buf = strconv.AppendInt(buf, s.Events[name], 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ParseCounterCSV parses the format written by WriteCounterCSV. A row
// with an empty events column yields a nil Events map; duplicate event
// names within a row are an error.
func ParseCounterCSV(r io.Reader) ([]CounterSnapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != counterHeader {
		return nil, fmt.Errorf("trace: missing counter CSV header")
	}
	var out []CounterSnapshot
	for i, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", i+2, len(fields))
		}
		snap := CounterSnapshot{Label: fields[0]}
		if snap.Cycles, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: cycles: %w", i+2, err)
		}
		if fields[2] != "" {
			snap.Events = make(map[string]int64)
			for _, pair := range strings.Split(fields[2], ";") {
				name, val, ok := strings.Cut(pair, "=")
				if !ok || name == "" {
					return nil, fmt.Errorf("trace: line %d: malformed event pair %q", i+2, pair)
				}
				if _, dup := snap.Events[name]; dup {
					return nil, fmt.Errorf("trace: line %d: duplicate event %q", i+2, name)
				}
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: event %q: %w", i+2, name, err)
				}
				snap.Events[name] = n
			}
		}
		out = append(out, snap)
	}
	return out, nil
}

// ParseMsgCSV parses the format written by WriteMsgCSV.
func ParseMsgCSV(r io.Reader) ([]MsgRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	const header = "api,call_ms,return_ms,received,kind,enqueued_ms,queue_len,thread"
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != header {
		return nil, fmt.Errorf("trace: missing message CSV header")
	}
	var out []MsgRecord
	for i, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			return nil, fmt.Errorf("trace: line %d: want 8 fields, got %d", i+2, len(fields))
		}
		bad := func(col string, err error) error {
			return fmt.Errorf("trace: line %d: %s: %w", i+2, col, err)
		}
		var rec MsgRecord
		if rec.API, err = parseMsgAPI(fields[0]); err != nil {
			return nil, bad("api", err)
		}
		callMs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, bad("call_ms", err)
		}
		returnMs, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, bad("return_ms", err)
		}
		if rec.Received, err = strconv.ParseBool(fields[3]); err != nil {
			return nil, bad("received", err)
		}
		if rec.Kind, err = strconv.Atoi(fields[4]); err != nil {
			return nil, bad("kind", err)
		}
		enqMs, err := strconv.ParseFloat(fields[5], 64)
		if err != nil {
			return nil, bad("enqueued_ms", err)
		}
		if rec.QueueLen, err = strconv.Atoi(fields[6]); err != nil {
			return nil, bad("queue_len", err)
		}
		if rec.Thread, err = strconv.Atoi(fields[7]); err != nil {
			return nil, bad("thread", err)
		}
		rec.Call = simtime.Time(simtime.FromMillis(callMs))
		rec.Return = simtime.Time(simtime.FromMillis(returnMs))
		rec.Enqueued = simtime.Time(simtime.FromMillis(enqMs))
		out = append(out, rec)
	}
	return out, nil
}
