package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
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
		t.Errorf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%64) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndPositivity(t *testing.T) {
	s := New(9)
	for _, rate := range []float64{0.1, 1, 10} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			v := s.Exp(rate)
			if v < 0 {
				t.Fatalf("Exp(%g) produced negative %v", rate, v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want) > 0.02*want {
			t.Errorf("Exp(%g) mean = %v, want ≈ %v", rate, mean, want)
		}
	}
}

func TestExpMemorylessTail(t *testing.T) {
	// P(X > t) should be e^{-rate·t}.
	s := New(13)
	const n = 200000
	count := 0
	for i := 0; i < n; i++ {
		if s.Exp(2) > 1 {
			count++
		}
	}
	got := float64(count) / n
	want := math.Exp(-2)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(Exp(2) > 1) = %v, want ≈ %v", got, want)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	s := New(19)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	if err := quick.Check(func(n uint8) bool {
		m := int(n % 100)
		p := s.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Exp(1)
	}
}
