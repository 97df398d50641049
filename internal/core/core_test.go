package core_test

import (
	"rsin/internal/core"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/crossbar"
)

func newTwoBusSystem() *core.Partitioned {
	return core.NewPartitioned([]core.Network{bus.New(2, 3), bus.New(2, 3)})
}

func TestPartitionedAccessors(t *testing.T) {
	p := newTwoBusSystem()
	if p.Processors() != 4 {
		t.Errorf("Processors = %d, want 4", p.Processors())
	}
	if p.Ports() != 2 {
		t.Errorf("Ports = %d, want 2", p.Ports())
	}
	if p.TotalResources() != 6 {
		t.Errorf("TotalResources = %d, want 6", p.TotalResources())
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestPartitionedIsolation(t *testing.T) {
	p := newTwoBusSystem()
	// Processor 0 holds partition 0's bus; processor 2 (partition 1)
	// must be unaffected.
	g0, ok := p.Acquire(0)
	if !ok {
		t.Fatal("acquire failed")
	}
	if _, ok := p.Acquire(1); ok {
		t.Error("same-partition acquire should block on busy bus")
	}
	g2, ok := p.Acquire(2)
	if !ok {
		t.Error("other-partition acquire should succeed")
	}
	// Global port indices must be distinct across partitions.
	if g0.Port == g2.Port {
		t.Errorf("port collision across partitions: %d", g0.Port)
	}
	if g2.Port != 1 {
		t.Errorf("partition-1 port = %d, want 1", g2.Port)
	}
	p.ReleasePath(g0)
	p.ReleasePath(g2)
	p.ReleaseResource(g0)
	p.ReleaseResource(g2)
}

func TestPartitionedReleaseRouting(t *testing.T) {
	p := newTwoBusSystem()
	g, _ := p.Acquire(3) // partition 1
	p.ReleasePath(g)
	// Partition 1's bus is free again.
	if _, ok := p.Acquire(2); !ok {
		t.Error("partition-1 bus should be free after release")
	}
	p.ReleaseResource(g)
}

func TestPartitionedTelemetryAggregation(t *testing.T) {
	p := newTwoBusSystem()
	p.Acquire(0)
	p.Acquire(2)
	p.Acquire(1) // blocked
	tel := p.Telemetry()
	if tel.Grants != 2 {
		t.Errorf("Grants = %d, want 2", tel.Grants)
	}
	if tel.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", tel.Attempts)
	}
	if tel.Failures != 1 {
		t.Errorf("Failures = %d, want 1", tel.Failures)
	}
}

func TestPartitionedPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":          func() { core.NewPartitioned(nil) },
		"mismatched":     func() { core.NewPartitioned([]core.Network{bus.New(2, 1), bus.New(3, 1)}) },
		"pid out of set": func() { newTwoBusSystem().Acquire(99) },
		"nested":         func() { core.NewPartitioned([]core.Network{newTwoBusSystem(), newTwoBusSystem()}) },
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
}

// TestPeers pins core.Peers: a Partitioned grant reports its
// partition's processor block, any other grant the whole network.
func TestPeers(t *testing.T) {
	const subsN, per = 3, 4
	subs := make([]core.Network, subsN)
	for i := range subs {
		subs[i] = crossbar.New(per, per, 1)
	}
	p := core.NewPartitioned(subs)
	for pid := 0; pid < subsN*per; pid++ {
		g, ok := p.Acquire(pid)
		if !ok {
			t.Fatalf("Acquire(%d) failed on an idle system", pid)
		}
		lo, hi, ok := core.Peers(g)
		if sub := pid / per; !ok || lo != sub*per || hi != (sub+1)*per {
			t.Errorf("Peers(grant of %d) = [%d, %d) ok=%v, want [%d, %d) ok=true", pid, lo, hi, ok, sub*per, (sub+1)*per)
		}
		p.ReleasePath(g)
		p.ReleaseResource(g)
	}
	g, ok := bus.New(2, 1).Acquire(0)
	if !ok {
		t.Fatal("bus Acquire failed on an idle bus")
	}
	if _, _, ok := core.Peers(g); ok {
		t.Error("Peers reported a block for an unpartitioned grant")
	}
}
