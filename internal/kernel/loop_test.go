package kernel_test

import (
	"fmt"
	"reflect"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/faults"
	"latlab/internal/fscache"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/rng"
	"latlab/internal/simtime"
	"latlab/internal/trace"
	"latlab/internal/winsys"
)

// prim is one primitive of a loop-equivalence script.
type prim struct {
	kind uint8 // primCompute ... primForward
	arg  int64
}

const (
	primCompute = iota
	primDomainCross
	primModeSwitch
	primRead
	primWrite
	primSleep
	primGet
	primPeek
	primForward
	numPrims
)

// loopScript is what an application thread does and what happens to it:
// before each episode the thread takes a message; keyboard interrupts
// supply those messages and land mid-episode too, where the thread may
// take them with GetMessage or PeekMessage and forward the last message
// it took to a higher-priority sink thread; another higher-priority
// thread preempts, and the disk runs under a fault plan.
type loopScript struct {
	episodes [][]prim
	// splits[i] is where the TC.Loop form of episode i hands control
	// back to the body and starts another loop, besides each message
	// primitive, which the body issues itself between two loops.
	splits    []int
	keys      []simtime.Time
	preempt   bool
	faultSeed uint64
}

// horizons are the Run boundaries at which both forms must agree.
var horizons = []simtime.Time{
	simtime.Time(3 * simtime.Millisecond),
	simtime.Time(17 * simtime.Millisecond),
	simtime.Time(60 * simtime.Millisecond),
	simtime.Time(250 * simtime.Millisecond),
	simtime.Time(simtime.Second),
	simtime.Time(4 * simtime.Second),
}

// scriptFrom decodes a script from arbitrary bytes; every input is a
// valid script, so the fuzzer explores only behaviour.
func scriptFrom(data []byte) loopScript {
	at := 0
	next := func() int64 {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return int64(b)
	}
	s := loopScript{preempt: next()%2 == 1, faultSeed: uint64(next())}
	// The first key starts the first episode; the rest land anywhere in
	// the first 65 ms, where the episodes run.
	s.keys = []simtime.Time{simtime.Time(simtime.Millisecond)}
	for i, n := 0, next()%8; i < int(n); i++ {
		s.keys = append(s.keys, simtime.Time((next()<<8|next())*int64(simtime.Microsecond)))
	}
	for e := 0; e < 4 && at < len(data); e++ {
		var ep []prim
		for i, n := 0, 1+next()%10; i < int(n); i++ {
			ep = append(ep, prim{kind: uint8(next() % numPrims), arg: next()})
		}
		s.episodes = append(s.episodes, ep)
		s.splits = append(s.splits, int(next())%(len(ep)+1))
	}
	return s
}

// loopObservation is the machine state compared at each Run horizon.
type loopObservation struct {
	Now      simtime.Time
	Counters [cpu.NumEventKinds]int64
	Busy     simtime.Duration
	Ticks    int64
	IOErrors int64
	Retries  int64
	Served   int64
	Msgs     int
	States   []kernel.ThreadState
}

// loopRun is everything one form of a script produced.
type loopRun struct {
	obs  []loopObservation
	msgs []trace.MsgRecord
	// seen logs what the thread saw before each primitive, the time
	// and whether user input was pending, and after each message
	// primitive, the time and the reply.
	seen    []string
	resumes int64
}

// issue records the reply-free primitive p on lc, or on tc when lc is
// nil.
func issue(tc *kernel.TC, lc *kernel.LoopTC, p prim, file fscache.FileID) {
	seg := cpu.Segment{Name: "work", BaseCycles: 2_000 + p.arg*1_500, Instructions: 1_000 + p.arg*700,
		DataRefs: 300 + p.arg*200, CodePages: []uint64{300 + uint64(p.arg%5)},
		DataPages: []uint64{400 + uint64(p.arg%7), 500 + uint64(p.arg%3)}}
	page, pages := p.arg%48, 1+p.arg%4
	switch p.kind {
	case primCompute:
		if lc != nil {
			lc.Compute(seg)
		} else {
			tc.Compute(seg)
		}
	case primDomainCross:
		if lc != nil {
			lc.DomainCross()
		} else {
			tc.DomainCross()
		}
	case primModeSwitch:
		if lc != nil {
			lc.ModeSwitch()
		} else {
			tc.ModeSwitch()
		}
	case primRead:
		if lc != nil {
			lc.ReadFile(file, page, pages)
		} else {
			tc.ReadFile(file, page, pages)
		}
	case primWrite:
		if lc != nil {
			lc.WriteFile(file, page, pages)
		} else {
			tc.WriteFile(file, page, pages)
		}
	case primSleep:
		d := simtime.Duration(p.arg) * 37 * simtime.Microsecond
		if lc != nil {
			lc.Sleep(d)
		} else {
			tc.Sleep(d)
		}
	}
}

// isMessage reports whether p is a message primitive, which only a
// thread body can issue.
func isMessage(p prim) bool { return p.kind >= primGet }

// runLoopScript runs s with each episode issued primitive by primitive
// (useLoop false) or with its runs of reply-free primitives lent to the
// kernel through TC.Loop, and observes it at every horizon.
func runLoopScript(s loopScript, useLoop bool) loopRun {
	k := kernel.New(kernel.DefaultConfig())
	defer k.Shutdown()
	var out loopRun
	k.SetHooks(kernel.Hooks{OnMsgAPI: func(r trace.MsgRecord) { out.msgs = append(out.msgs, r) }})
	if s.faultSeed != 0 {
		// Windows 12-36 ms in, 12-32 ms long: across the episodes' I/O.
		plan := faults.Generate(s.faultSeed, 80*simtime.Millisecond,
			faults.DiskDegrade, faults.DiskStall, faults.DiskMediaErrors)
		k.Disk().SetFaults(faults.NewClock(plan))
	}
	file := k.Cache().AddFile("data", 5_000, 64)

	saw := func(now simtime.Time, pending bool) {
		out.seen = append(out.seen, fmt.Sprintf("%d/%t", now, pending))
	}
	// The sink takes what the app forwards and works on each message.
	sink := k.Spawn("sink", 3, 10, func(tc *kernel.TC) {
		for {
			m := tc.GetMessage()
			tc.Compute(cpu.Segment{Name: "sink", BaseCycles: 5_000 + int64(m.Kind)*1_000, CodePages: []uint64{800}})
		}
	})
	var last kernel.Msg
	// message issues the message primitive p on tc: it logs what
	// GetMessage and PeekMessage took, and Forward sends the last message
	// taken to the sink.
	message := func(tc *kernel.TC, p prim) {
		saw(tc.Now(), tc.PendingUserInput())
		var m kernel.Msg
		ok := true
		switch p.kind {
		case primGet:
			m = tc.GetMessage()
		case primPeek:
			m, ok = tc.PeekMessage()
		case primForward:
			tc.Forward(sink, last)
			return
		}
		out.seen = append(out.seen, fmt.Sprintf("%d: %+v %t", tc.Now(), m, ok))
		if ok {
			last = m
		}
	}
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		for e, ep := range s.episodes {
			last = tc.GetMessage()
			i := 0
			for i < len(ep) {
				if isMessage(ep[i]) {
					message(tc, ep[i])
					i++
					continue
				}
				if !useLoop {
					saw(tc.Now(), tc.PendingUserInput())
					issue(tc, nil, ep[i], file)
					i++
					continue
				}
				end := len(ep)
				if i < s.splits[e] {
					end = s.splits[e]
				}
				tc.Loop(func(lc *kernel.LoopTC) bool {
					if i == end || isMessage(ep[i]) {
						return false
					}
					saw(lc.Now(), lc.PendingUserInput())
					issue(nil, lc, ep[i], file)
					i++
					return true
				})
			}
		}
	})
	threads := []*kernel.Thread{app, sink}
	if s.preempt {
		threads = append(threads, k.Spawn("preempter", 2, 12, func(tc *kernel.TC) {
			for i := 0; i < 40; i++ {
				tc.Sleep(3 * simtime.Millisecond)
				tc.Compute(cpu.Segment{Name: "burst", BaseCycles: 90_000, CodePages: []uint64{700}})
			}
		}))
	}
	for _, at := range s.keys {
		k.At(at, func(simtime.Time) { k.KeyboardInterrupt(app, kernel.WMChar, 0) })
	}
	base := k.Resumes()
	for _, h := range horizons {
		k.Run(h)
		o := loopObservation{Now: k.Now(), Counters: k.CPU().Snapshot(), Busy: k.NonIdleBusyTime(),
			Ticks: k.ClockTicks(), IOErrors: k.IOErrors(), Retries: k.Disk().Retries(),
			Served: k.Disk().Served(), Msgs: len(out.msgs)}
		for _, t := range threads {
			o.States = append(o.States, t.State())
		}
		out.obs = append(out.obs, o)
	}
	out.resumes = k.Resumes() - base
	return out
}

// checkLoopEquivalence fails t unless both forms of s agree everywhere.
func checkLoopEquivalence(t *testing.T, s loopScript) {
	t.Helper()
	want := runLoopScript(s, false)
	got := runLoopScript(s, true)
	for i := range want.obs {
		if !reflect.DeepEqual(got.obs[i], want.obs[i]) {
			t.Fatalf("at horizon %v:\nloop      %+v\none by one %+v", horizons[i], got.obs[i], want.obs[i])
		}
	}
	if !reflect.DeepEqual(got.msgs, want.msgs) {
		t.Fatalf("message-API logs differ:\nloop      %v\none by one %v", got.msgs, want.msgs)
	}
	if !reflect.DeepEqual(got.seen, want.seen) {
		t.Fatalf("the thread saw different instants or input:\nloop      %v\none by one %v", got.seen, want.seen)
	}
	if got.resumes > want.resumes {
		t.Fatalf("loops took %d coroutine resumes, one by one %d", got.resumes, want.resumes)
	}
}

// TestLoopMatchesPrimitives holds TC.Loop to the primitive-by-primitive
// path on random scripts whose message primitives the body issues
// between lent loops: same clock, counters, busy time, ticks, I/O
// errors, message log and thread states at every Run horizon, and the
// same instants, pending input and message replies seen by the code
// between primitives.
func TestLoopMatchesPrimitives(t *testing.T) {
	r := rng.New(18)
	for i := 0; i < 60; i++ {
		data := make([]byte, 40+r.Intn(60))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		s := scriptFrom(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkLoopEquivalence(t, s) })
	}
}

// FuzzLoopEquivalence is TestLoopMatchesPrimitives on fuzzed scripts.
func FuzzLoopEquivalence(f *testing.F) {
	f.Add([]byte{1, 7, 3, 10, 20, 30, 40, 50, 60, 5, 0, 9, 1, 40, 2, 3, 3, 4, 4, 8, 5, 2, 3})
	f.Add([]byte{0, 0, 0, 9, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 200, 7, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 9, 3, 255, 4, 255, 1, 0, 2, 0, 5})
	// Keys at 1, 2.8 and 5.1 ms; two episodes that peek, take and
	// forward, split after their third and second primitives.
	f.Add([]byte{0, 0, 2, 10, 240, 19, 236, 5, 7, 0, 8, 1, 6, 0, 8, 2, 0, 3, 7, 1, 3, 3, 6, 0, 8, 3, 7, 0, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoopEquivalence(t, scriptFrom(data))
	})
}

// TestWinsysCallIsOneHandshake pins the resume count of a run of
// window-system calls: RepaintLines(26) on NT 3.51 with an application
// bound is 104 primitives (glue, crossing, server segment, return
// crossing per line), one coroutine resume as a single kernel loop
// where a round trip per primitive would take 104.
func TestWinsysCallIsOneHandshake(t *testing.T) {
	p := persona.NT351()
	k := kernel.New(p.Kernel)
	defer k.Shutdown()
	w := winsys.New(k, p)
	w.BindApp([]uint64{300, 301, 302, 303, 304, 305})
	resumes := int64(-1)
	k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		before := k.Resumes()
		w.RepaintLines(tc, 26)
		resumes = k.Resumes() - before
	})
	k.Run(simtime.Time(simtime.Second))
	if resumes != 1 {
		t.Fatalf("RepaintLines(26) took %d coroutine resumes, want 1", resumes)
	}
	if w.Calls() != 26 || k.CPU().Count(cpu.DomainCrossings) != 2*26 {
		t.Fatalf("calls %d, crossings %d: want 26 calls crossing twice each",
			w.Calls(), k.CPU().Count(cpu.DomainCrossings))
	}
}
