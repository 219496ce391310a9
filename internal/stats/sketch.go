package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Sketch is a mergeable streaming quantile sketch over non-negative
// samples (latencies in milliseconds), built for campaign-scale runs
// where per-event samples must be discarded: memory stays bounded by
// the sample *range*, never the sample *count*.
//
// It is the log-bucket member of the t-digest family (DDSketch-style):
// values land in geometrically spaced buckets with base gamma =
// (1+alpha)/(1-alpha), so every quantile estimate is within relative
// error alpha of the true sample quantile. Alongside the buckets it
// tracks exact count/min/max and streaming sum/M2 moments, so mean and
// jitter (standard deviation) come from the same object.
//
// Determinism contract (what the campaign ledger relies on, proved by
// the property tests in sketch_test.go):
//
//   - Merge(a, b) and Merge(b, a) produce byte-identical sketches:
//     bucket counts are integer sums, and the moment merges are written
//     in operand-symmetric form (IEEE addition and multiplication are
//     commutative, and the cross term depends only on delta squared).
//   - Bucket counts — and therefore every Quantile estimate — are
//     exactly invariant under any sharding of the input: folding shards
//     and folding the whole stream yield identical integer counts.
//   - Sum/Mean/M2 are grouping-invariant only up to floating-point
//     rounding; for a fixed fold order they are bit-deterministic,
//     which is why the campaign engine folds each cell sequentially in
//     seed order and the analyzer merges cells in ledger order.
type Sketch struct {
	gamma   float64
	lnGamma float64
	alpha   float64

	count uint64
	zeros uint64 // samples below SketchMinValue (estimated as 0)
	sum   float64
	min   float64
	max   float64
	m2    float64 // sum of squared deviations from the mean

	base    int // bucket index of buckets[0]
	buckets []uint64
}

// SketchMinValue is the smallest magnitude the sketch resolves;
// samples below it (including exact zeros) land in a dedicated zero
// bucket and are estimated as 0. One nanosecond, in milliseconds.
const SketchMinValue = 1e-6

// DefaultSketchAlpha is the relative accuracy campaigns run with: one
// percent of the value at every quantile.
const DefaultSketchAlpha = 0.01

// NewSketch returns an empty sketch with the given relative accuracy
// (0 < alpha < 1). Typical alpha is DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("stats: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{gamma: gamma, lnGamma: math.Log(gamma), alpha: alpha}
}

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of samples added.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Min returns the smallest sample (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the sample mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Variance returns the population variance (0 when empty).
func (s *Sketch) Variance() float64 {
	if s.count == 0 {
		return 0
	}
	v := s.m2 / float64(s.count)
	if v < 0 { // floating-point merge slop can dip epsilon-negative
		return 0
	}
	return v
}

// StdDev returns the population standard deviation — the campaign's
// jitter metric.
func (s *Sketch) StdDev() float64 { return math.Sqrt(s.Variance()) }

// indexOf returns the bucket index for x >= SketchMinValue: the
// smallest i with gamma^i >= x, so bucket i covers (gamma^(i-1),
// gamma^i].
func (s *Sketch) indexOf(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// valueOf returns the estimate for bucket index i: the point whose
// worst-case relative error over the bucket's range is exactly alpha.
func (s *Sketch) valueOf(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add records one sample. Negative samples are clamped to the zero
// bucket (latencies cannot be negative; a clamp keeps a corrupted
// input from poisoning the bucket range). Steady-state Add is
// allocation-free once the sample range has been seen.
func (s *Sketch) Add(x float64) {
	if x < 0 {
		x = 0
	}
	// Moments first: delta against the pre-add mean, the nb=1 case of
	// the pairwise merge formula.
	if s.count == 0 {
		s.min, s.max = x, x
	} else {
		oldMean := s.sum / float64(s.count)
		delta := x - oldMean
		s.m2 += delta * delta * float64(s.count) / float64(s.count+1)
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.count++
	s.sum += x

	if x < SketchMinValue {
		s.zeros++
		return
	}
	s.bump(s.indexOf(x), 1)
}

// bump adds n to bucket idx, growing the dense window as needed.
func (s *Sketch) bump(idx int, n uint64) {
	if len(s.buckets) == 0 {
		s.base = idx
		s.buckets = append(s.buckets, 0)
	}
	for idx < s.base {
		// Prepend: grow at the front, preserving order.
		grow := s.base - idx
		s.buckets = append(make([]uint64, grow, grow+len(s.buckets)), s.buckets...)
		s.base = idx
	}
	for idx >= s.base+len(s.buckets) {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx-s.base] += n
}

// Merge folds o into s. Bucket counts add exactly; moments merge with
// the operand-symmetric parallel formula, so Merge(a,b) and Merge(b,a)
// are byte-identical. The two sketches must share the same alpha.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if s.gamma != o.gamma {
		return fmt.Errorf("stats: merging sketches with different accuracy (alpha %v vs %v)", s.alpha, o.alpha)
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
		s.m2 = o.m2
	} else {
		na, nb := float64(s.count), float64(o.count)
		delta := s.sum/na - o.sum/nb
		s.m2 = (s.m2 + o.m2) + delta*delta*(na*nb)/(na+nb)
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.sum += o.sum
	s.zeros += o.zeros
	for i, c := range o.buckets {
		if c > 0 {
			s.bump(o.base+i, c)
		}
	}
	return nil
}

// Quantile returns the estimate for quantile q in [0, 1], within
// relative error Alpha of the exact sample quantile at rank
// ceil(q*count) (rank 1 for q = 0). An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	if rank <= s.zeros {
		return 0
	}
	cum := s.zeros
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			return s.valueOf(s.base + i)
		}
	}
	// Unreachable for a consistent sketch; fall back to the top bucket.
	return s.Max()
}

// sketchJSON is the serialized form: fixed field order, sparse
// ascending [index, count] bucket pairs — the representation the
// campaign ledger commits, so it must be deterministic and strict to
// re-parse.
type sketchJSON struct {
	Alpha   float64    `json:"alpha"`
	Count   uint64     `json:"count"`
	Zeros   uint64     `json:"zeros"`
	Sum     float64    `json:"sum"`
	Min     float64    `json:"min"`
	Max     float64    `json:"max"`
	M2      float64    `json:"m2"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON implements json.Marshaler with a canonical form: only
// non-empty buckets, ascending by index.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	out := sketchJSON{
		Alpha: s.alpha, Count: s.count, Zeros: s.zeros,
		Sum: s.sum, Min: s.Min(), Max: s.Max(), M2: s.m2,
		Buckets: make([][2]int64, 0, len(s.buckets)),
	}
	for i, c := range s.buckets {
		if c > 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(s.base + i), int64(c)})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, strictly: unknown fields,
// out-of-order or non-positive buckets, and count/bucket mismatches
// are all rejected, so a corrupted ledger record fails loudly.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in sketchJSON
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("stats: sketch: %w", err)
	}
	if !(in.Alpha > 0 && in.Alpha < 1) {
		return fmt.Errorf("stats: sketch: alpha %v out of (0,1)", in.Alpha)
	}
	for _, v := range []float64{in.Sum, in.Min, in.Max, in.M2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stats: sketch: non-finite moment")
		}
	}
	n := in.Zeros
	fresh := NewSketch(in.Alpha)
	prev := math.MinInt64
	for _, b := range in.Buckets {
		idx, c := b[0], b[1]
		if c <= 0 {
			return fmt.Errorf("stats: sketch: bucket %d has non-positive count %d", idx, c)
		}
		if int(idx) <= prev {
			return fmt.Errorf("stats: sketch: bucket indices not strictly ascending at %d", idx)
		}
		prev = int(idx)
		fresh.bump(int(idx), uint64(c))
		n += uint64(c)
	}
	if n != in.Count {
		return fmt.Errorf("stats: sketch: count %d does not match bucket total %d", in.Count, n)
	}
	fresh.count = in.Count
	fresh.zeros = in.Zeros
	fresh.sum = in.Sum
	fresh.min = in.Min
	fresh.max = in.Max
	fresh.m2 = in.M2
	*s = *fresh
	return nil
}
