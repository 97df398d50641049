package crossbar

import (
	"testing"
	"testing/quick"

	"rsin/internal/core"
	"rsin/internal/rng"
)

func TestFirstFreeIsAsymmetric(t *testing.T) {
	// The wavefront design always latches the lowest-index eligible
	// port.
	x := New(4, 4, 1)
	g0, ok := x.Acquire(0)
	if !ok || g0.Port != 0 {
		t.Fatalf("first grant port = %d, want 0", g0.Port)
	}
	g1, ok := x.Acquire(1)
	if !ok || g1.Port != 1 {
		t.Fatalf("second grant port = %d, want 1", g1.Port)
	}
}

func TestNonBlockingProperty(t *testing.T) {
	// A crossbar is non-blocking: with m ports of 1 resource each, m
	// simultaneous requests from distinct processors all succeed.
	const m = 8
	x := New(m, m, 1)
	for pid := 0; pid < m; pid++ {
		if _, ok := x.Acquire(pid); !ok {
			t.Fatalf("request %d blocked in a non-blocking crossbar", pid)
		}
	}
	if _, ok := x.Acquire(0); ok {
		t.Error("m+1-th request should fail: all resources reserved")
	}
	tel := x.Telemetry()
	if tel.Grants != m || tel.Failures != 1 || tel.ResourceBlock != 1 {
		t.Errorf("telemetry %+v", tel)
	}
}

func TestPathVsResourceBlockage(t *testing.T) {
	// Two resources behind one port: with the bus held, a free resource
	// exists but is unreachable — a path blockage.
	x := New(2, 1, 2)
	x.Acquire(0)
	if _, ok := x.Acquire(1); ok {
		t.Fatal("expected blockage")
	}
	tel := x.Telemetry()
	if tel.PathBlock != 1 || tel.ResourceBlock != 0 {
		t.Errorf("telemetry %+v, want PathBlock=1", tel)
	}
}

func TestReleaseCycle(t *testing.T) {
	x := New(2, 2, 1)
	g, _ := x.Acquire(0)
	x.ReleasePath(g)
	if x.FreePorts() != 1 {
		t.Errorf("FreePorts = %d, want 1 (port 0 has no free resource)", x.FreePorts())
	}
	x.ReleaseResource(g)
	if x.FreePorts() != 2 {
		t.Errorf("FreePorts = %d, want 2", x.FreePorts())
	}
}

func TestConservationProperty(t *testing.T) {
	// Random acquire/release interleavings never lose or duplicate
	// resources.
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		x := New(8, 4, 2)
		var inTx, inSvc []core.Grant
		for step := 0; step < 300; step++ {
			switch src.Intn(3) {
			case 0:
				if g, ok := x.Acquire(src.Intn(8)); ok {
					inTx = append(inTx, g)
				}
			case 1:
				if len(inTx) > 0 {
					i := src.Intn(len(inTx))
					g := inTx[i]
					inTx = append(inTx[:i], inTx[i+1:]...)
					x.ReleasePath(g)
					inSvc = append(inSvc, g)
				}
			case 2:
				if len(inSvc) > 0 {
					i := src.Intn(len(inSvc))
					g := inSvc[i]
					inSvc = append(inSvc[:i], inSvc[i+1:]...)
					x.ReleaseResource(g)
				}
			}
		}
		// Conservation: free + reserved == total per port.
		reserved := make([]int, 4)
		for _, g := range inTx {
			reserved[g.Port]++
		}
		for _, g := range inSvc {
			reserved[g.Port]++
		}
		for j := 0; j < 4; j++ {
			if x.free[j]+reserved[j] != 2 || x.free[j] < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccessorsAndPanics(t *testing.T) {
	x := New(16, 8, 2)
	if x.Processors() != 16 || x.Ports() != 8 || x.TotalResources() != 16 {
		t.Error("accessors wrong")
	}
	if x.Name() == "" {
		t.Error("empty name")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad pid")
		}
	}()
	x.Acquire(99)
}
