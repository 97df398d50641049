package stats

import (
	"errors"
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for synthetic noise (the stats
// package must not depend on the simulator's RNG).
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(*g>>11) / float64(1<<53)
}

func TestMSER5TooShort(t *testing.T) {
	for _, n := range []int{0, 1, 5, 9} {
		x := make([]float64, n)
		if got := MSER5(x); got != 0 {
			t.Fatalf("MSER5(len %d) = %d, want 0", n, got)
		}
		if _, stat := mser5(x); !math.IsNaN(stat) {
			t.Fatalf("mser5(len %d) stat = %g, want NaN", n, stat)
		}
	}
}

func TestMSER5ConstantSeriesNeedsNoTruncation(t *testing.T) {
	x := make([]float64, 200)
	for i := range x {
		x[i] = 3.5
	}
	if got := MSER5(x); got != 0 {
		t.Fatalf("MSER5(constant) = %d, want 0", got)
	}
}

func TestMSER5FindsStepTransient(t *testing.T) {
	// 50 transient observations far above the stationary level, then
	// 450 stationary ones with mild noise: MSER-5 must truncate at
	// least the transient, and not eat deep into the stationary part.
	g := lcg(1983)
	x := make([]float64, 500)
	for i := range x {
		if i < 50 {
			x[i] = 100 + g.next()
		} else {
			x[i] = 2 + 0.1*g.next()
		}
	}
	got := MSER5(x)
	if got < 50 {
		t.Fatalf("MSER5 truncated %d observations, transient is 50", got)
	}
	if got > 100 {
		t.Fatalf("MSER5 truncated %d observations, far beyond the 50-point transient", got)
	}
	// The returned cut is always on a batch boundary and within the
	// half-series guard.
	if got%5 != 0 {
		t.Fatalf("truncation %d is not a multiple of the batch size", got)
	}
	if got > len(x)/2 {
		t.Fatalf("truncation %d exceeds half the series", got)
	}
}

func TestMSER5StatDropsAfterTransientRemoved(t *testing.T) {
	g := lcg(7)
	x := make([]float64, 400)
	for i := range x {
		if i < 40 {
			x[i] = 50
		} else {
			x[i] = 1 + 0.01*g.next()
		}
	}
	_, with := mser5(x)
	_, without := mser5(x[40:])
	if math.IsNaN(with) || math.IsNaN(without) {
		t.Fatal("unexpected NaN statistic")
	}
	if without > with {
		t.Fatalf("stat without transient %g > stat with transient %g", without, with)
	}
}

func TestMSER5RejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, 20)
		x[7] = bad
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic for %g", bad)
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrNonFiniteSample) {
					t.Fatalf("panic %v does not wrap ErrNonFiniteSample", r)
				}
			}()
			MSER5(x)
		}()
	}
}
