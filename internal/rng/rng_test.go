package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestKnownSequence(t *testing.T) {
	// Pin the first outputs for seed 0 so any accidental algorithm change
	// (which would silently re-randomise every experiment) fails loudly.
	s := New(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 64; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := New(seed)
		for i := 0; i < 32; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	const n = 200_000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈10", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Fatalf("normal std = %v, want ≈3", std)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(9)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(5)
		if v < 0 {
			t.Fatalf("exponential draw negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Fatalf("exponential mean = %v, want ≈5", mean)
	}
}

func TestUniform(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 8)
		if v < 3 || v >= 8 {
			t.Fatalf("Uniform(3,8) = %v out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
