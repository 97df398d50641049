package omega

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/invariant"
)

// TestOmegaAcquireZeroAlloc pins the allocation count of the untyped
// network's full grant lifecycle — Acquire (the routing search),
// ReleasePath, ReleaseResource — and of the tag-routed baseline at
// exactly zero from the first grant: the occupancy registers and the
// per-port circuits are sized when the network is built, so there is no
// pool to warm.
func TestOmegaAcquireZeroAlloc(t *testing.T) {
	invariant.Enable(false)
	defer invariant.Enable(true)

	const n = 16
	o := New(n, 1)
	grants := make([]core.Grant, 0, n)
	if avg := testing.AllocsPerRun(200, func() {
		grants = grants[:0]
		for pid := 0; pid < n; pid++ {
			if g, ok := o.Acquire(pid); ok {
				grants = append(grants, g)
			}
		}
		for _, g := range grants {
			o.ReleasePath(g)
			o.ReleaseResource(g)
		}
	}); avg != 0 {
		t.Errorf("Acquire/Release cycle allocates %g allocs/run, want 0", avg)
	}
	if len(grants) == 0 {
		t.Fatal("the cycle acquired no grants")
	}

	if avg := testing.AllocsPerRun(200, func() {
		for pid := 0; pid < n; pid++ {
			if g, ok := o.AcquireTag(pid, pid); ok {
				o.ReleasePath(g)
				o.ReleaseResource(g)
			}
		}
	}); avg != 0 {
		t.Errorf("AcquireTag/Release cycle allocates %g allocs/run, want 0", avg)
	}
}

// TestTypedAcquireZeroAlloc is the typed-network analogue: a typed
// grant is a plain value and the type pools are sized when the network
// is built, so an AcquireType/ReleasePath/ReleaseResource cycle
// allocates nothing from the first grant.
func TestTypedAcquireZeroAlloc(t *testing.T) {
	invariant.Enable(false)
	defer invariant.Enable(true)

	const n = 16
	pools := make([][]int, n)
	for j := range pools {
		pools[j] = []int{1, 1}
	}
	to := NewTyped(n, pools)
	grants := make([]core.Grant, 0, n)
	if avg := testing.AllocsPerRun(200, func() {
		grants = grants[:0]
		for pid := 0; pid < n; pid++ {
			if g, ok := to.AcquireType(pid, pid%2); ok {
				grants = append(grants, g)
			}
		}
		for _, g := range grants {
			to.ReleasePath(g)
			to.ReleaseResource(g, g.Processor%2)
		}
	}); avg != 0 {
		t.Errorf("AcquireType/Release cycle allocates %g allocs/run, want 0", avg)
	}
	if len(grants) == 0 {
		t.Fatal("the cycle acquired no grants")
	}
}
