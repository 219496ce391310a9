package core

import (
	"latlab/internal/simtime"
	"latlab/internal/trace"
)

// ProfilePoint is one point of a CPU-utilization profile.
type ProfilePoint struct {
	// T is the time coordinate (sample completion, or bucket start for
	// averaged profiles).
	T simtime.Time
	// Util is average CPU utilization over the point's interval, 0..1.
	Util float64
}

// Profile converts idle samples into the full-resolution utilization
// profile of paper Figs. 3/4a: one point per sample, using the paper's
// formula (elapsed - idle) / elapsed.
func Profile(samples []trace.IdleSample) []ProfilePoint {
	pts := make([]ProfilePoint, len(samples))
	for i, s := range samples {
		pts[i] = ProfilePoint{T: s.Done, Util: s.Utilization(NominalSample)}
	}
	return pts
}

// AveragedProfile averages utilization over fixed buckets (Fig. 4b shows
// the same data as 4a averaged over 10 ms intervals). Buckets with no
// samples at all are omitted — with the instrument running, that only
// happens when the CPU was 100% busy for the whole bucket, so a gap
// bracketed by samples is emitted as a saturated bucket.
func AveragedProfile(samples []trace.IdleSample, bucket simtime.Duration) []ProfilePoint {
	if bucket <= 0 {
		panic("core: non-positive profile bucket")
	}
	if len(samples) == 0 {
		return nil
	}
	var pts []ProfilePoint
	bIdx := int64(samples[0].Done.Add(-samples[0].Elapsed)) / int64(bucket)
	var busyInBucket, idleInBucket simtime.Duration
	flush := func() {
		total := busyInBucket + idleInBucket
		if total > 0 {
			pts = append(pts, ProfilePoint{
				T:    simtime.Time(bIdx * int64(bucket)),
				Util: float64(busyInBucket) / float64(total),
			})
		}
		busyInBucket, idleInBucket = 0, 0
	}
	for _, s := range samples {
		start := s.Done.Add(-s.Elapsed)
		stolen := s.Stolen(NominalSample)
		idle := s.Elapsed - stolen
		// Distribute the sample's busy and idle time across the buckets
		// it spans, proportionally.
		for start < s.Done {
			idx := int64(start) / int64(bucket)
			if idx != bIdx {
				flush()
				// Buckets fully covered by a long sample are saturated
				// or idle proportionally; emit skipped buckets.
				for bIdx++; bIdx < idx; bIdx++ {
					frac := fraction(s, simtime.Time(bIdx*int64(bucket)), simtime.Time((bIdx+1)*int64(bucket)), stolen, idle)
					pts = append(pts, ProfilePoint{T: simtime.Time(bIdx * int64(bucket)), Util: frac})
				}
				bIdx = idx
			}
			bEnd := simtime.Time((idx + 1) * int64(bucket))
			segEnd := s.Done
			if bEnd < segEnd {
				segEnd = bEnd
			}
			seg := segEnd.Sub(start)
			// Apportion stolen/idle uniformly within the sample.
			if s.Elapsed > 0 {
				busyInBucket += simtime.Duration(int64(stolen) * int64(seg) / int64(s.Elapsed))
				idleInBucket += simtime.Duration(int64(idle) * int64(seg) / int64(s.Elapsed))
			}
			start = segEnd
		}
	}
	flush()
	return pts
}

// fraction returns the uniform busy fraction of a sample (used for fully
// covered buckets).
func fraction(s trace.IdleSample, _, _ simtime.Time, stolen, idle simtime.Duration) float64 {
	total := stolen + idle
	if total <= 0 {
		return 0
	}
	return float64(stolen) / float64(total)
}

// MeanUtil returns the mean utilization across points.
func MeanUtil(pts []ProfilePoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += p.Util
	}
	return s / float64(len(pts))
}
