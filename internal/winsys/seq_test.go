package winsys

import (
	"fmt"
	"reflect"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// oracleCall is one Win32 call issued one primitive at a time, each its
// own coroutine round trip: the oracle callSeq is held to. glues, when
// non-nil, collects the instant each glue compute starts.
func oracleCall(w *WinSys, tc *kernel.TC, o op, glues *[]simtime.Time) {
	w.calls++

	if len(w.appPages) > 0 {
		if glues != nil {
			*glues = append(*glues, tc.Now())
		}
		tc.Compute(cpu.Segment{
			Name: o.name + "-glue", BaseCycles: 2000,
			Instructions: 1300, DataRefs: 500,
			CodePages: w.appPages,
		})
	}

	base := int64(float64(o.cycles) * w.p.PathScale)
	if w.p.Arch == persona.Shared16Bit && o.scale16 != 0 {
		base = int64(float64(base) * o.scale16)
	}
	if w.p.BatchScale < 1 && tc.PendingUserInput() {
		base = int64(float64(base) * w.p.BatchScale)
		w.batched++
	}
	stream := int(float64(o.stream) * w.p.DataWindowScale)
	c := w.cursor(o, stream)

	seg := cpu.Segment{
		Name:         o.name,
		BaseCycles:   base,
		Instructions: base * 6 / 10,
		DataRefs:     base * 3 / 10,
		CacheChunks:  c.chunks,
		DataPages:    make([]uint64, 0, len(c.hot)+stream),
	}
	seg.DataPages = append(seg.DataPages, c.hot...)
	for i := 0; i < stream; i++ {
		seg.DataPages = append(seg.DataPages, c.base+uint64((c.pos+i)%max(c.window, 1)))
	}
	c.pos = (c.pos + stream) % max(c.window, 1)

	if w.p.SegLoadsPerKCycle > 0 {
		seg.SegmentLoads = int64(w.p.SegLoadsPerKCycle * float64(base) / 1000)
	}
	if w.p.UnalignedPerKCycle > 0 {
		seg.UnalignedAccesses = int64(w.p.UnalignedPerKCycle * float64(base) / 1000)
	}

	switch w.p.Arch {
	case persona.ServerProcess:
		seg.CodePages = serverPages
		tc.DomainCross()
		tc.Compute(seg)
		tc.DomainCross()
	case persona.KernelMode:
		seg.CodePages = gdiKernelPages
		tc.ModeSwitch()
		tc.Compute(seg)
	case persona.Shared16Bit:
		seg.CodePages = pages16
		tc.ModeSwitch()
		tc.Compute(seg)
	}
}

// seqCases pairs every operation with the one-by-one calls it stands
// for: prod runs the operation with argument n, and oracle issues the
// same calls through call.
var seqCases = []struct {
	name   string
	prod   func(w *WinSys, tc *kernel.TC, n int)
	oracle func(w *WinSys, tc *kernel.TC, n int, call func(op))
}{
	{"KeyTranslate", func(w *WinSys, tc *kernel.TC, n int) { w.KeyTranslate(tc) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) { call(opKeyTranslate) }},
	{"DefWindowProc", func(w *WinSys, tc *kernel.TC, n int) { w.DefWindowProc(tc) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) { call(opDefWindowProc) }},
	{"MouseEvent", func(w *WinSys, tc *kernel.TC, n int) { w.MouseEvent(tc) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) { call(opMouseEvent) }},
	{"ScrollWindow", func(w *WinSys, tc *kernel.TC, n int) { w.ScrollWindow(tc) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) { call(opScrollWindow) }},
	{"CreateWindow", func(w *WinSys, tc *kernel.TC, n int) { w.CreateWindow(tc) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) { call(opCreateWindow) }},
	{"TextOut", func(w *WinSys, tc *kernel.TC, n int) { w.TextOut(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			for i := 0; i < n; i++ {
				call(opTextOut)
			}
		}},
	{"RepaintLines", func(w *WinSys, tc *kernel.TC, n int) { w.RepaintLines(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			for i := 0; i < n; i++ {
				call(opRepaintLine)
			}
		}},
	{"RepaintWindow", func(w *WinSys, tc *kernel.TC, n int) { w.RepaintWindow(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			for i := 0; i < n; i++ {
				call(opRepaintCell)
			}
		}},
	{"DrawChart", func(w *WinSys, tc *kernel.TC, n int) { w.DrawChart(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			for i := 0; i < n; i += 2 {
				call(opDrawChart)
			}
		}},
	{"OLESetup", func(w *WinSys, tc *kernel.TC, n int) { w.OLESetup(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			for i := 0; i < n; i++ {
				call(opOLESetup)
			}
		}},
	{"DrawFrame", func(w *WinSys, tc *kernel.TC, n int) { w.DrawFrame(tc, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			o := opDrawFrame
			o.cycles += int64(n) * 25_000
			call(o)
		}},
	{"MaximizeAnimation", func(w *WinSys, tc *kernel.TC, n int) { w.MaximizeAnimation(tc, n, n) },
		func(w *WinSys, tc *kernel.TC, n int, call func(op)) {
			call(opMaxPrep)
			for i := 1; i <= n; i++ {
				tc.Sleep(simtime.Nanosecond)
				o := opDrawFrame
				o.cycles += int64(i) * 25_000
				call(o)
			}
			for i := 0; i < n; i++ {
				call(opRepaintCell)
			}
		}},
}

// seqRun is what one run of an operation produced.
type seqRun struct {
	calls, batched int64
	counters       [cpu.NumEventKinds]int64
	msgs           []trace.MsgRecord
	// mid and end are when the two passes of the operation returned.
	mid, end simtime.Time
	state    kernel.ThreadState
	glues    []simtime.Time
}

// runSeq runs op twice on an application thread after its first
// message, with a second keystroke's interrupt raised at key (none when
// zero), and records what the window system and the machine did.
func runSeq(p persona.P, bind bool, op func(w *WinSys, tc *kernel.TC, glues *[]simtime.Time), key simtime.Time) seqRun {
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := New(k, p)
	if bind {
		w.BindApp(appPages)
	}
	var out seqRun
	k.SetHooks(kernel.Hooks{OnMsgAPI: func(r trace.MsgRecord) { out.msgs = append(out.msgs, r) }})
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		tc.GetMessage()
		op(w, tc, &out.glues)
		out.mid = tc.Now()
		op(w, tc, &out.glues)
		out.end = tc.Now()
		tc.GetMessage()
		tc.GetMessage()
	})
	keystroke := func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) }
	k.At(simtime.Time(simtime.Millisecond), keystroke)
	if key > 0 {
		k.At(key, keystroke)
	}
	k.Run(simtime.Time(20 * simtime.Second))
	out.calls, out.batched, out.counters = w.Calls(), w.BatchedCalls(), k.CPU().Snapshot()
	out.state = app.State()
	return out
}

// TestCallSequenceMatchesOneByOne holds every operation's call sequence
// to the one-by-one oracle, for each persona and size, with and without
// an application bound. A keystroke lands during a glue compute in the
// second pass (or mid-pass without glue), so the batching check must see
// the input exactly when the one-by-one path did: after the glue.
func TestCallSequenceMatchesOneByOne(t *testing.T) {
	for _, p := range []persona.P{persona.NT351(), persona.NT40(), persona.W95()} {
		for _, c := range seqCases {
			for _, n := range []int{1, 2, 7} {
				for _, bind := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/n=%d/bound=%t", p.Short, c.name, n, bind)
					t.Run(name, func(t *testing.T) {
						oracle := func(w *WinSys, tc *kernel.TC, glues *[]simtime.Time) {
							c.oracle(w, tc, n, func(o op) { oracleCall(w, tc, o, glues) })
						}
						prod := func(w *WinSys, tc *kernel.TC, _ *[]simtime.Time) { c.prod(w, tc, n) }
						probe := runSeq(p, bind, oracle, 0)
						key := probe.mid + (probe.end-probe.mid)/2
						if bind {
							key = probe.glues[len(probe.glues)*3/4] + 1
						}
						want := runSeq(p, bind, oracle, key)
						got := runSeq(p, bind, prod, key)
						if bind && want.batched == 0 {
							t.Fatalf("the keystroke at %v, during a glue, batched no call", key)
						}
						want.glues = nil
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("call sequence differs from one-by-one calls:\ngot  %+v\nwant %+v", got, want)
						}
					})
				}
			}
		}
	}
}
