package omega

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/rng"
)

// TestGrantRejectsMatchTelemetry drives an Omega network, a bound
// TypedOmega and a Partitioned pair of Omega networks through a random
// mix of acquires and staggered path/resource releases, and requires
// every Acquire's Grant.Rejects to equal the call's Telemetry.Rejects
// delta, on success and on failure.
func TestGrantRejectsMatchTelemetry(t *testing.T) {
	typeOf := make([]int, 16)
	for pid := range typeOf {
		typeOf[pid] = pid % 2
	}
	for _, tc := range []struct {
		name string
		net  core.Network
	}{
		{"omega", New(16, 2)},
		{"typed", NewTyped(16, uniformPools(16, []int{1, 1})).Bind(typeOf)},
		{"partitioned", core.NewPartitioned([]core.Network{New(16, 2), New(16, 2)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			ts := net.(core.TelemetrySource)
			src := rng.New(7)
			busy := make([]bool, net.Processors())
			var transmitting, serving []core.Grant
			take := func(gs *[]core.Grant) core.Grant {
				i := src.Intn(len(*gs))
				g := (*gs)[i]
				(*gs)[i] = (*gs)[len(*gs)-1]
				*gs = (*gs)[:len(*gs)-1]
				return g
			}
			var okRejects, failRejects int64
			for step := 0; step < 20000; step++ {
				switch op := src.Intn(4); {
				case op == 0 && len(transmitting) > 0:
					g := take(&transmitting)
					net.ReleasePath(g)
					busy[g.Processor] = false
					serving = append(serving, g)
				case op == 1 && len(serving) > 0:
					net.ReleaseResource(take(&serving))
				default:
					pid := src.Intn(net.Processors())
					if busy[pid] {
						continue
					}
					before := ts.Telemetry().Rejects
					g, ok := net.Acquire(pid)
					if d := ts.Telemetry().Rejects - before; g.Rejects != d {
						t.Fatalf("step %d: Acquire(%d) ok=%v reported %d rejects, telemetry moved by %d", step, pid, ok, g.Rejects, d)
					}
					if !ok {
						failRejects += g.Rejects
						if g != (core.Grant{Rejects: g.Rejects}) {
							t.Fatalf("step %d: failed Acquire returned %+v", step, g)
						}
						continue
					}
					okRejects += g.Rejects
					busy[pid] = true
					transmitting = append(transmitting, g)
				}
			}
			if okRejects == 0 || failRejects == 0 {
				t.Errorf("rejects on grants %d, on failures %d: both paths must be exercised", okRejects, failRejects)
			}
		})
	}
}
