package obs

import (
	"errors"
	"math"
	"testing"
)

// mustPanicNonFinite runs f and requires it to panic with an error
// wrapping ErrNonFiniteMetric (the house invalid-update sentinel).
func mustPanicNonFinite(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", name)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrNonFiniteMetric) {
			t.Fatalf("%s: panic %v does not wrap ErrNonFiniteMetric", name, r)
		}
	}()
	f()
}

func TestCounterRejectsNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
	mustPanicNonFinite(t, "Counter.Add(-1)", func() { c.Add(-1) })
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() after rejected Add = %d, want 4", got)
	}
	c.Add(0) // zero is a legal no-op delta
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() after Add(0) = %d, want 4", got)
	}
}

func TestGaugeRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		v := v
		mustPanicNonFinite(t, "Set", func() {
			var g Gauge
			g.Set(1, v)
		})
	}
	// A rejected update must not disturb the accumulator.
	var g Gauge
	g.Set(0, 2)
	func() {
		defer func() { recover() }()
		g.Set(1, math.NaN())
	}()
	if g.last != 2 {
		t.Fatalf("last after rejected Set = %g, want 2", g.last)
	}
	if got := g.meanAt(2); got != 2 {
		t.Fatalf("meanAt(2) after rejected Set = %g, want 2", got)
	}
}
