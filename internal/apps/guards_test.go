package apps

import (
	"testing"

	"latlab/internal/input"
	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

func bootNT40() *system.System { return system.New(system.Config{Persona: persona.NT40()}) }

func TestPowerpointCommandGuards(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	ppt := NewPowerpoint(sys, DefaultPowerpointParams())
	served := sys.K.Disk().Served()

	// Open/save/page-down before launch are ignored.
	for _, cmd := range []int64{CmdOpen, CmdSave} {
		sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, cmd)
	}
	sys.K.PostMessage(ppt.Thread(), kernel.WMKeyDown, input.VKPageDown)
	sys.K.RunFor(500 * simtime.Millisecond)
	if ppt.Saves != 0 || ppt.PageDowns != 0 || ppt.CurSlide != 0 {
		t.Fatalf("pre-launch commands should be ignored: %+v", ppt)
	}
	if sys.K.Disk().Served() != served {
		t.Fatalf("pre-launch commands touched the disk")
	}

	// Double launch is idempotent.
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdLaunch)
	sys.K.RunFor(30 * simtime.Second)
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdLaunch)
	sys.K.RunFor(5 * simtime.Second)
	if ppt.Launches != 1 {
		t.Fatalf("launches = %d, want 1", ppt.Launches)
	}

	// Out-of-range object id is ignored.
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdOpen)
	sys.K.RunFor(30 * simtime.Second)
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdEditObject+99)
	sys.K.RunFor(2 * simtime.Second)
	if ppt.Edits != 0 {
		t.Fatalf("bogus object id should be ignored")
	}
	// End-edit with no session is a no-op.
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdEndEdit)
	sys.K.RunFor(2 * simtime.Second)
}

func TestPowerpointSlideWraparound(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	params := DefaultPowerpointParams()
	params.Slides = 3
	params.ObjectSlides = nil
	ppt := NewPowerpoint(sys, params)
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdLaunch)
	sys.K.RunFor(30 * simtime.Second)
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdOpen)
	sys.K.RunFor(30 * simtime.Second)
	for i := 0; i < 4; i++ {
		sys.K.PostMessage(ppt.Thread(), kernel.WMKeyDown, input.VKPageDown)
		sys.K.RunFor(2 * simtime.Second)
	}
	// 1 → 2 → 3 → 1 → 2.
	if ppt.CurSlide != 2 {
		t.Fatalf("slide = %d, want wraparound to 2", ppt.CurSlide)
	}
	if ppt.PageDowns != 4 {
		t.Fatalf("pagedowns = %d", ppt.PageDowns)
	}
}

func TestPowerpointAccessors(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	ppt := NewPowerpoint(sys, DefaultPowerpointParams())
	if len(ppt.Objects()) != 3 {
		t.Fatalf("objects = %d", len(ppt.Objects()))
	}
	if ppt.ObjectSlide(0) != 10 || ppt.ObjectSlide(2) != 30 {
		t.Fatalf("object slides wrong")
	}
	if ppt.Thread() == nil {
		t.Fatalf("thread nil")
	}
}

func TestPowerpointTypingOutsideEdit(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	ppt := NewPowerpoint(sys, DefaultPowerpointParams())
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdLaunch)
	sys.K.RunFor(30 * simtime.Second)
	sys.K.PostMessage(ppt.Thread(), kernel.WMCommand, CmdOpen)
	sys.K.RunFor(30 * simtime.Second)
	busy := sys.K.NonIdleBusyTime()
	sys.K.PostMessage(ppt.Thread(), kernel.WMChar, 'x') // slide-title typing
	sys.K.RunFor(2 * simtime.Second)
	if sys.K.NonIdleBusyTime() <= busy {
		t.Fatalf("typing outside an OLE session should still do work")
	}
}

func TestNotepadUnknownKeyFallsThrough(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	n := NewNotepad(sys)
	sys.K.RunFor(5 * simtime.Second) // load document
	busy := sys.K.NonIdleBusyTime()
	sys.K.PostMessage(n.Thread(), kernel.WMKeyDown, 0x70 /* F1 */)
	sys.K.RunFor(simtime.Second)
	if sys.K.NonIdleBusyTime() <= busy {
		t.Fatalf("unknown keydown should be translated and DefWindowProc'd")
	}
	if n.Chars != 0 || n.Refreshes != 0 {
		t.Fatalf("unknown key should not count as edit activity")
	}
}

func TestNotepadArrowKeysCheap(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	n := NewNotepad(sys)
	sys.K.RunFor(5 * simtime.Second)
	b0 := sys.K.NonIdleBusyTime()
	sys.K.PostMessage(n.Thread(), kernel.WMKeyDown, input.VKLeft)
	sys.K.RunFor(simtime.Second)
	arrowCost := sys.K.NonIdleBusyTime() - b0

	b1 := sys.K.NonIdleBusyTime()
	sys.K.PostMessage(n.Thread(), kernel.WMKeyDown, input.VKPageDown)
	sys.K.RunFor(2 * simtime.Second)
	pageCost := sys.K.NonIdleBusyTime() - b1
	if arrowCost*10 > pageCost {
		t.Fatalf("arrow %v should be far cheaper than page-down %v", arrowCost, pageCost)
	}
}

func TestNotepadBackspaceCountsAsChar(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	n := NewNotepad(sys)
	sys.K.RunFor(5 * simtime.Second)
	sys.K.PostMessage(n.Thread(), kernel.WMKeyDown, input.VKBack)
	sys.K.RunFor(simtime.Second)
	if n.Chars != 1 {
		t.Fatalf("backspace should count as a char edit")
	}
}

func TestEchoHandlesQueueSync(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	e := NewEcho(sys, 100_000)
	sys.K.PostMessage(e.Thread(), kernel.WMQueueSync, 0)
	sys.K.PostMessage(e.Thread(), kernel.WMChar, 'a')
	sys.K.RunFor(simtime.Second)
	if len(e.Conventional) != 1 {
		t.Fatalf("conventional measurements = %d, want 1 (QS not measured)", len(e.Conventional))
	}
}

func TestWordQuitAndKeydown(t *testing.T) {
	sys := bootNT40()
	defer sys.Shutdown()
	w := NewWord(sys)
	sys.K.PostMessage(w.Thread(), kernel.WMKeyDown, input.VKLeft)
	sys.K.RunFor(simtime.Second)
	sys.K.PostMessage(w.Thread(), kernel.WMQuit, 0)
	sys.K.RunFor(simtime.Second)
	if w.Thread().State() != kernel.StateDone {
		t.Fatalf("word should exit on WM_QUIT")
	}
}
