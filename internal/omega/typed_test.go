package omega

import (
	"testing"
	"testing/quick"

	"rsin/internal/core"
	"rsin/internal/rng"
	"rsin/internal/sim"
)

// uniformPools gives every port the same pool.
func uniformPools(n int, pool []int) [][]int {
	pools := make([][]int, n)
	for j := range pools {
		pools[j] = append([]int(nil), pool...)
	}
	return pools
}

func TestTypedBasicLifecycle(t *testing.T) {
	// 8 ports, 2 types, one of each per port.
	to := NewTyped(8, uniformPools(8, []int{1, 1}))
	if to.Types() != 2 || to.TotalResources() != 16 {
		t.Fatalf("accessors: types=%d total=%d", to.Types(), to.TotalResources())
	}
	g, ok := to.AcquireType(0, 1)
	if !ok {
		t.Fatal("typed acquire failed on idle network")
	}
	if to.FreeOfType(g.Port, 1) != 0 {
		t.Error("type-1 pool not decremented")
	}
	if to.FreeOfType(g.Port, 0) != 1 {
		t.Error("type-0 pool touched")
	}
	to.ReleasePath(g)
	to.ReleaseResource(g, 1)
	if to.FreeOfType(g.Port, 1) != 1 {
		t.Error("type-1 pool not restored")
	}
}

func TestTypedExhaustion(t *testing.T) {
	// Type 1 exists only at port 3, single unit.
	pools := uniformPools(8, []int{1, 0})
	pools[3][1] = 1
	to := NewTyped(8, pools)
	g, ok := to.AcquireType(0, 1)
	if !ok || g.Port != 3 {
		t.Fatalf("type-1 request should land on port 3 (got %d, ok=%v)", g.Port, ok)
	}
	to.ReleasePath(g) // circuit down; resource still serving
	if _, ok := to.AcquireType(1, 1); ok {
		t.Error("second type-1 request should block: resource busy")
	}
	tel := to.Telemetry()
	if tel.ResourceBlock != 1 {
		t.Errorf("ResourceBlock = %d, want 1", tel.ResourceBlock)
	}
	// Type 0 requests are unaffected.
	if _, ok := to.AcquireType(2, 0); !ok {
		t.Error("type-0 request should still succeed")
	}
}

// TestTypedDegeneratesToAddressMapping verifies the paper's Section VII
// observation: when each output port carries a different type, the type
// number uniquely identifies the destination and typed acquisition
// behaves exactly like destination-tag routing — same grant/block
// outcome and same port — under arbitrary pre-existing circuits.
func TestTypedDegeneratesToAddressMapping(t *testing.T) {
	const n = 8
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		// Port j carries the unique type j.
		pools := make([][]int, n)
		for j := range pools {
			pools[j] = make([]int, n)
			pools[j][j] = 1
		}
		typed := NewTyped(n, pools)
		tag := New(n, 1)
		// The same random circuits on both substrates.
		for k := 0; k < 3; k++ {
			s, d := src.Intn(n), src.Intn(n)
			g1, ok1 := typed.AcquireType(s, d)
			g2, ok2 := tag.AcquireTag(s, d)
			if ok1 != ok2 {
				return false
			}
			if ok1 && g1.Port != g2.Port {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTypedStatusOverhead(t *testing.T) {
	// O(t·log₂ N): 3 types on a 16×16 network = 3·4 status bits per
	// path.
	to := NewTyped(16, uniformPools(16, []int{1, 1, 1}))
	if got := to.StatusOverhead(); got != 12 {
		t.Errorf("StatusOverhead = %d, want 12", got)
	}
}

func TestTypedRerouteAroundBusyType(t *testing.T) {
	// Type 1 lives at ports 4 and 5 (same final-stage box region).
	pools := uniformPools(8, []int{2, 0})
	pools[4][1] = 1
	pools[5][1] = 1
	to := NewTyped(8, pools)
	a, ok := to.AcquireType(0, 1)
	if !ok {
		t.Fatal("first type-1 acquire failed")
	}
	b, ok := to.AcquireType(3, 1)
	if !ok {
		t.Fatal("second type-1 acquire failed (should find the other port)")
	}
	if a.Port == b.Port {
		t.Error("both grants on the same port with one unit each")
	}
}

func TestTypedBindRunsInEngine(t *testing.T) {
	// Processor classes: even processors request type 0, odd type 1.
	to := NewTyped(16, uniformPools(16, []int{1, 1}))
	typeOf := make([]int, 16)
	for i := range typeOf {
		typeOf[i] = i % 2
	}
	net := to.Bind(typeOf)
	res, err := sim.Run(net, sim.Config{
		Lambda: 0.05, MuN: 1, MuS: 0.1,
		Seed: 9, Warmup: 500, Samples: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Delay.Mean < 0 {
		t.Errorf("bad result %+v", res)
	}
	tel := res.Telemetry
	if tel.Grants == 0 {
		t.Error("no grants recorded")
	}
}

func TestTypedConstructionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"pool count":    func() { NewTyped(8, uniformPools(4, []int{1})) },
		"ragged pools":  func() { p := uniformPools(8, []int{1, 1}); p[3] = []int{1}; NewTyped(8, p) },
		"no types":      func() { NewTyped(8, uniformPools(8, []int{})) },
		"negative":      func() { NewTyped(8, uniformPools(8, []int{-1, 2})) },
		"empty pools":   func() { NewTyped(8, uniformPools(8, []int{0, 0})) },
		"bad type":      func() { NewTyped(8, uniformPools(8, []int{1})).AcquireType(0, 5) },
		"bad processor": func() { NewTyped(8, uniformPools(8, []int{1})).AcquireType(99, 0) },
		"bind length":   func() { NewTyped(8, uniformPools(8, []int{1})).Bind([]int{0}) },
		"release overflow": func() {
			to := NewTyped(8, uniformPools(8, []int{1}))
			g, _ := to.AcquireType(0, 0)
			to.ReleaseResource(g, 0)
			to.ReleaseResource(g, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
	t.Run("bind type range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		bad := make([]int, 8)
		bad[2] = 7
		NewTyped(8, uniformPools(8, []int{1})).Bind(bad)
	})
}

func TestTypedConservation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		to := NewTyped(8, uniformPools(8, []int{2, 1}))
		type held struct {
			g core.Grant
			t int
		}
		var inTx, inSvc []held
		for step := 0; step < 200; step++ {
			switch src.Intn(3) {
			case 0:
				typ := src.Intn(2)
				if g, ok := to.AcquireType(src.Intn(8), typ); ok {
					inTx = append(inTx, held{g, typ})
				}
			case 1:
				if len(inTx) > 0 {
					i := src.Intn(len(inTx))
					h := inTx[i]
					inTx = append(inTx[:i], inTx[i+1:]...)
					to.ReleasePath(h.g)
					inSvc = append(inSvc, h)
				}
			case 2:
				if len(inSvc) > 0 {
					i := src.Intn(len(inSvc))
					h := inSvc[i]
					inSvc = append(inSvc[:i], inSvc[i+1:]...)
					to.ReleaseResource(h.g, h.t)
				}
			}
		}
		// Per-port, per-type conservation.
		reserved := make([][2]int, 8)
		for _, h := range inTx {
			reserved[h.g.Port][h.t]++
		}
		for _, h := range inSvc {
			reserved[h.g.Port][h.t]++
		}
		for j := 0; j < 8; j++ {
			if to.FreeOfType(j, 0)+reserved[j][0] != 2 {
				return false
			}
			if to.FreeOfType(j, 1)+reserved[j][1] != 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
