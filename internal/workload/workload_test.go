package workload

import (
	"math"
	"sort"
	"testing"

	"rsin/internal/queueing"
)

func TestSweepInvertsRho(t *testing.T) {
	pts := Sweep(16, 1, 0.1, 32, []float64{0.2, 0.5, 0.8})
	for _, pt := range pts {
		back := queueing.TrafficIntensity(16, pt.Lambda, 1, 0.1, 32)
		if math.Abs(back-pt.Rho) > 1e-12 {
			t.Errorf("rho %v round-tripped to %v", pt.Rho, back)
		}
	}
}

func TestRhoGrid(t *testing.T) {
	g := RhoGrid(0.1, 0.9, 9)
	if len(g) != 9 || g[0] != 0.1 || math.Abs(g[8]-0.9) > 1e-12 {
		t.Errorf("grid = %v", g)
	}
	if !sort.Float64sAreSorted(g) {
		t.Error("grid not sorted")
	}
	if got := RhoGrid(0.5, 0.5, 1); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("single-point grid = %v", got)
	}
}

func TestRhoGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RhoGrid(0.9, 0.1, 5)
}
