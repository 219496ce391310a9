package ole

import (
	"testing"

	"latlab/internal/kernel"
	"latlab/internal/persona"
	"latlab/internal/simtime"
	"latlab/internal/system"
)

// activateTimes boots persona p and returns the latencies of three
// successive OLE activations (three distinct objects, as in the paper's
// PowerPoint task).
func activateTimes(t *testing.T, p persona.P) [3]simtime.Duration {
	t.Helper()
	sys := system.New(system.Config{Persona: p})
	defer sys.Shutdown()
	srv := NewServer(sys.Win, sys.K.Cache())
	objs := [3]*Object{
		NewObject(srv, "obj1", 400_000, 140, 240),
		NewObject(srv, "obj2", 480_000, 140, 240),
		NewObject(srv, "obj3", 560_000, 140, 240),
	}
	var lat [3]simtime.Duration
	sys.Win.BindApp([]uint64{300, 301, 302, 303})
	sys.SpawnApp("ppt", func(tc *kernel.TC) {
		for i, o := range objs {
			start := tc.Now()
			o.Activate(tc, sys.Win)
			lat[i] = tc.Now().Sub(start)
			o.Deactivate(tc, sys.Win)
		}
	})
	sys.K.Run(simtime.Time(120 * simtime.Second))
	return lat
}

func TestActivationWarming(t *testing.T) {
	lat := activateTimes(t, persona.NT40())
	// Table 1 shape: first activation is multi-second and successive
	// ones get cheaper as the buffer cache warms.
	if lat[0] < 3*simtime.Second || lat[0] > 9*simtime.Second {
		t.Fatalf("first activation = %v, want Table-1 scale (~5.8s)", lat[0])
	}
	if !(lat[1] < lat[0]/2) {
		t.Fatalf("second activation %v should be far below first %v", lat[1], lat[0])
	}
	if !(lat[2] < lat[1]) {
		t.Fatalf("third activation %v should be below second %v", lat[2], lat[1])
	}
	if lat[2] < 200*simtime.Millisecond {
		t.Fatalf("third activation %v suspiciously fast; data+setup should remain", lat[2])
	}
}

func TestActivationNT351SlowerThanNT40(t *testing.T) {
	l351 := activateTimes(t, persona.NT351())
	l40 := activateTimes(t, persona.NT40())
	for i := range l351 {
		if l351[i] <= l40[i] {
			t.Fatalf("activation %d: NT3.51 %v should exceed NT4.0 %v", i, l351[i], l40[i])
		}
	}
	// The cold gap is driven by the bigger image (BinaryScale) and the
	// extra server round trips.
	if gap := l351[0] - l40[0]; gap < 500*simtime.Millisecond {
		t.Fatalf("cold activation gap = %v, want Table-1 scale (≈1.2s)", gap)
	}
}

func TestRenderDoesNotTouchDisk(t *testing.T) {
	sys := system.New(system.Config{Persona: persona.NT40()})
	defer sys.Shutdown()
	srv := NewServer(sys.Win, sys.K.Cache())
	obj := NewObject(srv, "obj", 400_000, 100, 240)
	var renderDur simtime.Duration
	sys.SpawnApp("ppt", func(tc *kernel.TC) {
		start := tc.Now()
		obj.Render(tc, sys.Win)
		renderDur = tc.Now().Sub(start)
	})
	served := sys.K.Disk().Served()
	sys.K.Run(simtime.Time(10 * simtime.Second))
	if sys.K.Disk().Served() != served {
		t.Fatalf("render performed disk I/O")
	}
	if renderDur <= 0 || renderDur > simtime.Second {
		t.Fatalf("render = %v, want sub-second draw", renderDur)
	}
}

func TestEditKeystroke(t *testing.T) {
	sys := system.New(system.Config{Persona: persona.NT40()})
	defer sys.Shutdown()
	srv := NewServer(sys.Win, sys.K.Cache())
	obj := NewObject(srv, "obj", 400_000, 100, 240)
	var editDur simtime.Duration
	sys.SpawnApp("ppt", func(tc *kernel.TC) {
		obj.Activate(tc, sys.Win)
		start := tc.Now()
		obj.EditKeystroke(tc, sys.Win)
		editDur = tc.Now().Sub(start)
	})
	sys.K.Run(simtime.Time(60 * simtime.Second))
	if editDur <= 0 || editDur > 100*simtime.Millisecond {
		t.Fatalf("edit keystroke = %v, want well under 100ms warm", editDur)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d", srv.Sessions())
	}
}

func TestEditBeforeActivatePanics(t *testing.T) {
	sys := system.New(system.Config{Persona: persona.NT40()})
	defer sys.Shutdown()
	srv := NewServer(sys.Win, sys.K.Cache())
	obj := NewObject(srv, "obj", 400_000, 100, 240)
	panicked := false
	sys.SpawnApp("ppt", func(tc *kernel.TC) {
		defer func() {
			// Recover inside the thread body: the thread then exits
			// normally from the kernel's point of view.
			panicked = recover() != nil
		}()
		obj.EditKeystroke(tc, sys.Win)
	})
	sys.K.Run(simtime.Time(simtime.Second))
	if !panicked {
		t.Fatalf("EditKeystroke before Activate should panic")
	}
}
