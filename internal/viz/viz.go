package viz

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"latlab/internal/core"
	"latlab/internal/cpu"
	"latlab/internal/simtime"
	"latlab/internal/stats"
)

// grid is a character canvas with (0,0) at the bottom-left.
type grid struct {
	w, h  int
	cells [][]byte
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h, cells: make([][]byte, h)}
	for i := range g.cells {
		g.cells[i] = []byte(strings.Repeat(" ", w))
	}
	return g
}

func (g *grid) set(x, y int, c byte) {
	if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return
	}
	g.cells[g.h-1-y][x] = c
}

func (g *grid) vbar(x, y0, y1 int, c byte) {
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		g.set(x, y, c)
	}
}

func (g *grid) writeTo(w io.Writer, leftLabels func(row int) string) error {
	for i, row := range g.cells {
		label := ""
		if leftLabels != nil {
			label = leftLabels(g.h - 1 - i)
		}
		if _, err := fmt.Fprintf(w, "%10s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	return nil
}

// Profile renders a CPU-utilization profile: X is time, Y utilization
// 0-100%.
func Profile(w io.Writer, title string, pts []core.ProfilePoint, width, height int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintln(w, "  (no samples)")
		return err
	}
	t0, t1 := pts[0].T, pts[len(pts)-1].T
	span := float64(t1 - t0)
	if span <= 0 {
		span = 1
	}
	g := newGrid(width, height)
	for _, p := range pts {
		x := int(float64(p.T-t0) / span * float64(width-1))
		y := int(p.Util * float64(height-1))
		if p.Util > 0 {
			g.vbar(x, 0, y, '#')
		} else {
			g.set(x, 0, '.')
		}
	}
	if err := g.writeTo(w, func(row int) string {
		switch row {
		case height - 1:
			return "100%"
		case 0:
			return "0%"
		default:
			return ""
		}
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%10s +%s\n%10s  %-12s%*s\n", "", strings.Repeat("-", width),
		"", t0, width-12, t1)
	return err
}

// TimeSeries renders events as vertical bars at their start time with
// height proportional to log latency — the paper's "raw data
// representation" — and draws a horizontal marker at thresholdMs (the
// 0.1 s perception threshold in Fig. 5).
func TimeSeries(w io.Writer, title string, events []core.Event, thresholdMs float64, width, height int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "  (no events)")
		return err
	}
	t0 := events[0].Enqueued
	t1 := events[len(events)-1].Enqueued
	for _, e := range events {
		if e.Enqueued < t0 {
			t0 = e.Enqueued
		}
		if e.Enqueued > t1 {
			t1 = e.Enqueued
		}
	}
	span := float64(t1 - t0)
	if span <= 0 {
		span = 1
	}
	// Log scale from 1 ms to the maximum latency.
	maxMs := thresholdMs
	for _, e := range events {
		if v := e.Latency.Milliseconds(); v > maxMs {
			maxMs = v
		}
	}
	yOf := func(ms float64) int {
		if ms < 1 {
			ms = 1
		}
		return int(math.Log10(ms) / math.Log10(maxMs) * float64(height-1))
	}
	g := newGrid(width, height)
	ty := yOf(thresholdMs)
	for x := 0; x < width; x++ {
		g.set(x, ty, '-')
	}
	for _, e := range events {
		x := int(float64(e.Enqueued-t0) / span * float64(width-1))
		g.vbar(x, 0, yOf(e.Latency.Milliseconds()), '|')
	}
	if err := g.writeTo(w, func(row int) string {
		switch row {
		case height - 1:
			return fmt.Sprintf("%.0fms", maxMs)
		case ty:
			return fmt.Sprintf("%.0fms", thresholdMs)
		case 0:
			return "1ms"
		default:
			return ""
		}
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%10s +%s\n%10s  %-12s%*s\n", "", strings.Repeat("-", width),
		"", t0, width-12, t1)
	return err
}

// Histogram renders a latency histogram with a logarithmic count axis,
// as in the paper's Fig. 7 ("the Y scale in the histogram ... is a
// logarithmic scale").
func Histogram(w io.Writer, title string, h *stats.Histogram, barWidth int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	maxCount := h.MaxCount()
	if h.Under > maxCount {
		maxCount = h.Under
	}
	if h.Over > maxCount {
		maxCount = h.Over
	}
	if maxCount == 0 {
		_, err := fmt.Fprintln(w, "  (empty)")
		return err
	}
	logMax := math.Log10(float64(maxCount) + 1)
	bar := func(count int) string {
		if count == 0 {
			return ""
		}
		n := int(math.Log10(float64(count)+1) / logMax * float64(barWidth))
		if n < 1 {
			n = 1
		}
		return strings.Repeat("*", n)
	}
	if h.Under > 0 {
		if _, err := fmt.Fprintf(w, "  %12s %6d %s\n", fmt.Sprintf("<%.1fms", h.Lo), h.Under, bar(h.Under)); err != nil {
			return err
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		label := fmt.Sprintf("%.1f-%.1f", h.Lo+float64(i)*h.Width, h.Lo+float64(i+1)*h.Width)
		if _, err := fmt.Fprintf(w, "  %12s %6d %s\n", label, c, bar(c)); err != nil {
			return err
		}
	}
	if h.Over > 0 {
		if _, err := fmt.Fprintf(w, "  %12s %6d %s\n", fmt.Sprintf(">%.1fms", h.Hi), h.Over, bar(h.Over)); err != nil {
			return err
		}
	}
	return nil
}

// CumulativeCurve renders the cumulative-latency curve: X event latency
// (log), Y cumulative latency. The bracketed elapsed time matches the
// paper's figure captions.
func CumulativeCurve(w io.Writer, title string, pts []stats.CumulativePoint, elapsed simtime.Duration, width, height int) error {
	if _, err := fmt.Fprintf(w, "%s [elapsed %.1fs]\n", title, elapsed.Seconds()); err != nil {
		return err
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintln(w, "  (no events)")
		return err
	}
	maxLat := pts[len(pts)-1].Latency
	if maxLat < 1 {
		maxLat = 1
	}
	maxCum := pts[len(pts)-1].CumLatency
	if maxCum <= 0 {
		maxCum = 1
	}
	g := newGrid(width, height)
	for _, p := range pts {
		lat := p.Latency
		if lat < 1 {
			lat = 1
		}
		x := int(math.Log10(lat) / math.Log10(maxLat+1e-9) * float64(width-1))
		if x < 0 {
			x = 0
		}
		y := int(p.CumLatency / maxCum * float64(height-1))
		g.set(x, y, '*')
	}
	if err := g.writeTo(w, func(row int) string {
		switch row {
		case height - 1:
			return fmt.Sprintf("%.0fms", maxCum)
		case 0:
			return "0"
		default:
			return ""
		}
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%10s +%s\n%10s  1ms%*s\n", "", strings.Repeat("-", width),
		"", width-3, fmt.Sprintf("%.0fms (log)", maxLat))
	return err
}

// CumulativeByEvents renders the paper's third §3.2 representation: the
// cumulative latency as a function of the number of events (sorted by
// duration) — "providing an intuition about the variance in response
// time perceived by the user". Smooth curves mean events of the same
// class contribute equally (the Fig. 7 observation).
func CumulativeByEvents(w io.Writer, title string, pts []stats.CumulativePoint, width, height int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintln(w, "  (no events)")
		return err
	}
	maxCum := pts[len(pts)-1].CumLatency
	if maxCum <= 0 {
		maxCum = 1
	}
	g := newGrid(width, height)
	for _, p := range pts {
		x := (p.EventCount - 1) * (width - 1) / len(pts)
		y := int(p.CumLatency / maxCum * float64(height-1))
		g.set(x, y, '*')
	}
	if err := g.writeTo(w, func(row int) string {
		switch row {
		case height - 1:
			return fmt.Sprintf("%.0fms", maxCum)
		case 0:
			return "0"
		default:
			return ""
		}
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%10s +%s\n%10s  0%*d events (sorted by duration)\n",
		"", strings.Repeat("-", width), "", width-1, len(pts))
	return err
}

// CounterBars renders grouped hardware-counter measurements (Figs. 9-10):
// one block per event kind, one bar per measurement (persona).
func CounterBars(w io.Writer, title string, ms []core.CounterMeasurement, kinds []cpu.EventKind, barWidth int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s", "cycles"); err != nil {
		return err
	}
	var maxCycles int64 = 1
	for _, m := range ms {
		if m.Cycles > maxCycles {
			maxCycles = m.Cycles
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, m := range ms {
		n := int(float64(m.Cycles) / float64(maxCycles) * float64(barWidth))
		if _, err := fmt.Fprintf(w, "    %-10s %12d %s\n", m.Label, m.Cycles, strings.Repeat("#", n)); err != nil {
			return err
		}
	}
	for _, k := range kinds {
		var maxV int64 = 1
		for _, m := range ms {
			if v := m.Events[k]; v > maxV {
				maxV = v
			}
		}
		if _, err := fmt.Fprintf(w, "  %-22s\n", k); err != nil {
			return err
		}
		for _, m := range ms {
			v := m.Events[k]
			n := int(float64(v) / float64(maxV) * float64(barWidth))
			if _, err := fmt.Fprintf(w, "    %-10s %12d %s\n", m.Label, v, strings.Repeat("#", n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// EventsCSV writes extracted events as CSV.
func EventsCSV(w io.Writer, events []core.Event) error {
	if _, err := io.WriteString(w, "enqueued_ms,handle_start_ms,end_ms,latency_ms,busy_ms,gapped,kind\n"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%.6f,%.6f,%.6f,%.6f,%.6f,%t,%d\n",
			e.Enqueued.Milliseconds(), e.HandleStart.Milliseconds(), e.End.Milliseconds(),
			e.Latency.Milliseconds(), e.Busy.Milliseconds(), e.Gapped, int(e.Kind)); err != nil {
			return err
		}
	}
	return nil
}

// SortedByLatency returns events sorted descending by latency (for
// long-event tables like Table 1).
func SortedByLatency(events []core.Event) []core.Event {
	out := append([]core.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	return out
}
