package core_test

import (
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
)

// TestPartitionedPortOffsets pins the precomputed per-partition port
// bases: a grant from partition i must report a global port index in
// [i·m, (i+1)·m) and the same local port the sub-network granted.
func TestPartitionedPortOffsets(t *testing.T) {
	const subsN, ports = 4, 8
	subs := make([]core.Network, subsN)
	for i := range subs {
		subs[i] = crossbar.New(4, ports, 1)
	}
	p := core.NewPartitioned(subs)
	for i := 0; i < subsN; i++ {
		pid := i * 4 // first processor of partition i
		g, ok := p.Acquire(pid)
		if !ok {
			t.Fatalf("partition %d acquire failed on an idle system", i)
		}
		// FirstFree latches local port 0, so the global index is the base.
		if g.Port != i*ports {
			t.Errorf("partition %d granted global port %d, want %d", i, g.Port, i*ports)
		}
		p.ReleasePath(g)
		p.ReleaseResource(g)
	}
}

// TestPartitionedAcquireZeroAlloc requires a partitioned
// acquire/release cycle to allocate nothing from the first grant: a
// grant points at its partition's record, built with the system, so
// the large-p partitioned configurations stay inside the kernel's
// steady-state zero-allocation budget.
func TestPartitionedAcquireZeroAlloc(t *testing.T) {
	p := core.NewPartitioned([]core.Network{bus.New(2, 4), bus.New(2, 4)})
	if avg := testing.AllocsPerRun(200, func() {
		for pid := 0; pid < 4; pid += 2 {
			g, ok := p.Acquire(pid)
			if !ok {
				t.Fatal("acquire failed on an idle system")
			}
			p.ReleasePath(g)
			p.ReleaseResource(g)
		}
	}); avg != 0 {
		t.Errorf("partitioned acquire/release cycle allocates %g allocs/run, want 0", avg)
	}
}

// TestPartitionedGrantReleaseOrder checks that every grant routes its
// releases to the partition that issued it: interleaved lifecycles
// across partitions must release the bus and resource of the partition
// that granted them, never a neighbor's.
func TestPartitionedGrantReleaseOrder(t *testing.T) {
	p := core.NewPartitioned([]core.Network{bus.New(2, 1), bus.New(2, 1)})
	// Exhaust both partitions (1 resource each), then release in the
	// opposite order and reacquire.
	g0, ok0 := p.Acquire(0)
	g1, ok1 := p.Acquire(2)
	if !ok0 || !ok1 {
		t.Fatal("initial acquires failed")
	}
	if _, ok := p.Acquire(1); ok {
		t.Fatal("partition 0 should be exhausted")
	}
	p.ReleasePath(g1)
	p.ReleaseResource(g1)
	if _, ok := p.Acquire(1); ok {
		t.Fatal("partition 1's release must not free partition 0")
	}
	g3, ok := p.Acquire(3)
	if !ok {
		t.Fatal("partition 1 should be free again")
	}
	p.ReleasePath(g0)
	p.ReleaseResource(g0)
	p.ReleasePath(g3)
	p.ReleaseResource(g3)
}
