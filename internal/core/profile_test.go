package core

import (
	"math"
	"testing"

	"latlab/internal/cpu"
	"latlab/internal/kernel"
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

func TestProfileFormula(t *testing.T) {
	// Paper §2.5: a 10 ms sample containing 1 ms of idle is 90% utilized.
	samples := []trace.IdleSample{
		{Done: at(1), Elapsed: ms(1)},
		{Done: at(11), Elapsed: ms(10)},
	}
	pts := Profile(samples)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Util != 0 {
		t.Fatalf("idle sample util = %v", pts[0].Util)
	}
	if math.Abs(pts[1].Util-0.9) > 1e-9 {
		t.Fatalf("busy sample util = %v, want 0.9", pts[1].Util)
	}
	if pts[1].T != at(11) {
		t.Fatalf("time coordinate = %v", pts[1].T)
	}
}

func TestAveragedProfileBuckets(t *testing.T) {
	// 20 one-ms idle samples then one 10ms sample (9 ms stolen): with
	// 10 ms buckets, bucket 0 and 1 are idle, bucket 2 is ~90% busy.
	var samples []trace.IdleSample
	for i := 1; i <= 20; i++ {
		samples = append(samples, trace.IdleSample{Done: at(float64(i)), Elapsed: ms(1)})
	}
	samples = append(samples, trace.IdleSample{Done: at(30), Elapsed: ms(10)})
	pts := AveragedProfile(samples, 10*simtime.Millisecond)
	if len(pts) != 3 {
		t.Fatalf("buckets = %d, want 3: %+v", len(pts), pts)
	}
	if pts[0].Util != 0 || pts[1].Util != 0 {
		t.Fatalf("idle buckets utilization = %v/%v", pts[0].Util, pts[1].Util)
	}
	if math.Abs(pts[2].Util-0.9) > 0.01 {
		t.Fatalf("busy bucket = %v, want ≈0.9", pts[2].Util)
	}
}

func TestAveragedProfileSaturatedGap(t *testing.T) {
	// One 35 ms sample (34 ms stolen) spans several 10 ms buckets; all
	// covered buckets must report near-saturation, none omitted.
	samples := []trace.IdleSample{
		{Done: at(1), Elapsed: ms(1)},
		{Done: at(36), Elapsed: ms(35)},
	}
	pts := AveragedProfile(samples, 10*simtime.Millisecond)
	if len(pts) < 4 {
		t.Fatalf("buckets = %d, want ≥4 (gap must be filled): %+v", len(pts), pts)
	}
	for _, p := range pts[1 : len(pts)-1] {
		if p.Util < 0.9 {
			t.Fatalf("covered bucket at %v util=%v, want ≈0.97", p.T, p.Util)
		}
	}
}

func TestAveragedProfileValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for bad bucket")
		}
	}()
	AveragedProfile(nil, 0)
}

func TestProfileHelpers(t *testing.T) {
	pts := []ProfilePoint{{Util: 0.2}, {Util: 0.8}, {Util: 0.5}}
	if math.Abs(MeanUtil(pts)-0.5) > 1e-9 {
		t.Fatalf("MeanUtil = %v", MeanUtil(pts))
	}
	if MeanUtil(nil) != 0 {
		t.Fatalf("empty helpers wrong")
	}
}

func TestEndToEndProfileOfBurst(t *testing.T) {
	// A 30 ms burst on an otherwise idle machine shows up as a block of
	// saturated utilization in the averaged profile (the Fig. 4 shape).
	k := kernel.New(quietConfig())
	defer k.Shutdown()
	il := StartIdleLoop(k, 2000)
	app := k.Spawn("app", 1, 8, func(tc *kernel.TC) {
		tc.GetMessage()
		tc.Compute(cpu.Segment{Name: "burst", BaseCycles: 3_000_000})
	})
	k.At(at(100), func(simtime.Time) { k.PostMessage(app, kernel.WMChar, 0) })
	k.Run(simtime.Time(300 * simtime.Millisecond))

	pts := AveragedProfile(il.Samples(), 10*simtime.Millisecond)
	var saturated int
	for _, p := range pts {
		if p.Util > 0.9 {
			saturated++
		}
	}
	if saturated < 2 || saturated > 4 {
		t.Fatalf("saturated 10ms buckets = %d, want ≈3 for a 30ms burst", saturated)
	}
}
