// Package crossbar implements the multiple-shared-bus RSIN of paper
// Section IV: a p×m crossbar switch whose every output port is a shared
// bus carrying r resources.
//
// The performance model here captures the allocation semantics of the
// paper's distributed cell array (Fig. 6 / Table I): a request from
// processor i sweeps across the cells of row i and latches onto the
// first column j whose resource controller asserts "bus j free and ≥1
// resource available". The crossbar itself is non-blocking — any idle
// processor can reach any free bus — so the only blockage sources are
// busy buses and busy resources. The gate-level structural model of the
// cell, with the truth table and timing claims, lives in sibling file
// cells.go.
package crossbar

import (
	"fmt"
	"math/bits"

	"rsin/internal/core"
	"rsin/internal/invariant"
)

// PortPolicy selects which eligible output port a request latches onto.
type PortPolicy int

const (
	// FirstFree takes the lowest-index eligible port, matching the
	// asymmetric wavefront of the paper's cell design.
	FirstFree PortPolicy = iota
	// LeastLoaded takes the eligible port with the most free resources,
	// a smarter controller used as an ablation.
	LeastLoaded
)

// String returns the policy name.
func (p PortPolicy) String() string {
	switch p {
	case FirstFree:
		return "first-free"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("PortPolicy(%d)", int(p))
	}
}

// Crossbar is a p×m crossbar with r resources on each output bus.
type Crossbar struct {
	processors int
	ports      int
	perPort    int
	policy     PortPolicy

	busBusy []bool
	free    []int
	tel     core.Telemetry

	// freeResPorts counts the ports with ≥1 free resource (bus state
	// ignored): the "resource available" status lines a real resource
	// controller ORs together rather than rescans. It classifies a
	// FirstFree reject as path or resource blocking.
	freeResPorts int

	// eligBits mirrors the eligibility predicate per port (bit j set iff
	// port j has an idle bus and ≥1 free resource), so the FirstFree
	// policy's "first eligible column" answer is a find-first-set over
	// m/64 words instead of an O(m) cell walk — the scan that dominates
	// large-p crossbar profiles. checkAggregates recounts it bit by bit
	// alongside freeResPorts.
	eligBits []uint64

	cellsSwept int64   // crossbar cells examined across all Acquires
	portGrants []int64 // grants latched per output port
}

// New returns a crossbar connecting processors to ports output buses
// with perPort resources each, using the FirstFree policy.
func New(processors, ports, perPort int) *Crossbar {
	return NewWithPolicy(processors, ports, perPort, FirstFree)
}

// NewWithPolicy returns a crossbar with an explicit port-selection
// policy.
func NewWithPolicy(processors, ports, perPort int, policy PortPolicy) *Crossbar {
	if processors <= 0 || ports <= 0 || perPort <= 0 {
		panic(fmt.Sprintf("crossbar: invalid shape %dx%d r=%d", processors, ports, perPort))
	}
	x := &Crossbar{
		processors:   processors,
		ports:        ports,
		perPort:      perPort,
		policy:       policy,
		busBusy:      make([]bool, ports),
		free:         make([]int, ports),
		freeResPorts: ports,
		eligBits:     make([]uint64, (ports+63)/64),
		portGrants:   make([]int64, ports),
	}
	for i := range x.free {
		x.free[i] = perPort
		x.setElig(i)
	}
	return x
}

// setElig marks port j eligible in the bitmap.
//
//lint:hotpath
func (x *Crossbar) setElig(j int) { x.eligBits[j>>6] |= 1 << uint(j&63) }

// clearElig marks port j ineligible in the bitmap.
//
//lint:hotpath
func (x *Crossbar) clearElig(j int) { x.eligBits[j>>6] &^= 1 << uint(j&63) }

// firstElig returns the lowest eligible port, or -1 when none is.
//
//lint:hotpath
func (x *Crossbar) firstElig() int {
	for w, word := range x.eligBits {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Acquire implements core.Network: connect pid to an eligible port per
// the policy, reserving the bus and one resource.
//
//lint:hotpath called once per allocation attempt in the event loop
func (x *Crossbar) Acquire(pid int) (core.Grant, bool) {
	if pid < 0 || pid >= x.processors {
		panic(fmt.Sprintf("crossbar: processor %d out of range", pid))
	}
	x.tel.Attempts++
	best := -1
	if x.policy == FirstFree {
		// The wavefront latches the first column whose controller asserts
		// eligibility: exactly the bitmap's first set bit. The simulated
		// hardware still examines best+1 cells on a latch and the full
		// row on a reject, so cellsSwept charges what the scan would
		// have, and a reject's blockage classification comes from the
		// freeResPorts aggregate — by definition the same answer as the
		// scan's any-free-resource test.
		best = x.firstElig()
		if best == -1 {
			x.cellsSwept += int64(x.ports)
			x.tel.Failures++
			if x.freeResPorts > 0 {
				// Free resources exist but sit behind busy buses: the
				// shared output port is the blockage.
				x.tel.PathBlock++
			} else {
				x.tel.ResourceBlock++
			}
			return core.Grant{}, false
		}
		x.cellsSwept += int64(best) + 1
	} else {
		anyFreeRes := false
		for j := 0; j < x.ports; j++ {
			if x.free[j] > 0 {
				anyFreeRes = true
			}
			if x.busBusy[j] || x.free[j] == 0 {
				continue
			}
			if best == -1 || x.free[j] > x.free[best] {
				best = j
			}
		}
		// LeastLoaded always sweeps the full row.
		x.cellsSwept += int64(x.ports)
		if best == -1 {
			x.tel.Failures++
			if anyFreeRes {
				x.tel.PathBlock++
			} else {
				x.tel.ResourceBlock++
			}
			return core.Grant{}, false
		}
	}
	invariant.Assert(!x.busBusy[best] && x.free[best] > 0, "crossbar",
		"policy %v granted ineligible port %d (busy=%v free=%d)",
		x.policy, best, x.busBusy[best], x.free[best])
	x.busBusy[best] = true
	x.clearElig(best)
	x.free[best]--
	if x.free[best] == 0 {
		x.freeResPorts--
	}
	x.tel.Grants++
	x.portGrants[best]++
	x.checkAggregates()
	return core.Grant{Processor: pid, Port: best}, true
}

// checkAggregates recounts the status aggregates from scratch under the
// invariant build tag, pinning the incremental bookkeeping to the
// ground-truth port state.
func (x *Crossbar) checkAggregates() {
	if !invariant.Enabled() {
		return
	}
	freeRes := 0
	for j := 0; j < x.ports; j++ {
		if x.free[j] > 0 {
			freeRes++
		}
		eligible := x.free[j] > 0 && !x.busBusy[j]
		bit := x.eligBits[j>>6]&(1<<uint(j&63)) != 0
		invariant.Assert(bit == eligible, "crossbar",
			"eligibility bit drifted: port %d bit=%v but busy=%v free=%d",
			j, bit, x.busBusy[j], x.free[j])
	}
	invariant.Assert(freeRes == x.freeResPorts, "crossbar",
		"freeResPorts drifted: %d (recount %d)", x.freeResPorts, freeRes)
}

// ReleasePath implements core.Network.
//
//lint:hotpath
func (x *Crossbar) ReleasePath(g core.Grant) {
	if !x.busBusy[g.Port] {
		panic("crossbar: ReleasePath with idle bus")
	}
	x.busBusy[g.Port] = false
	if x.free[g.Port] > 0 {
		x.setElig(g.Port)
	}
	x.checkAggregates()
}

// ReleaseResource implements core.Network.
//
//lint:hotpath
func (x *Crossbar) ReleaseResource(g core.Grant) {
	if x.free[g.Port] >= x.perPort {
		panic("crossbar: ReleaseResource overflow")
	}
	x.free[g.Port]++
	if x.free[g.Port] == 1 {
		x.freeResPorts++
		if !x.busBusy[g.Port] {
			x.setElig(g.Port)
		}
	}
	x.checkAggregates()
}

// Processors implements core.Network.
func (x *Crossbar) Processors() int { return x.processors }

// Ports implements core.Network.
func (x *Crossbar) Ports() int { return x.ports }

// TotalResources implements core.Network.
func (x *Crossbar) TotalResources() int { return x.ports * x.perPort }

// Name implements core.Network.
func (x *Crossbar) Name() string {
	return fmt.Sprintf("XBAR(p=%d,m=%d,r=%d)", x.processors, x.ports, x.perPort)
}

// Telemetry implements core.TelemetrySource.
func (x *Crossbar) Telemetry() core.Telemetry { return x.tel }

// DetailCounters implements core.DetailSource: the wavefront scan effort
// (cells of the distributed array examined) and the per-port grant
// distribution, which exposes the FirstFree policy's low-index bias.
func (x *Crossbar) DetailCounters() []core.NamedCounter {
	out := make([]core.NamedCounter, 0, 1+x.ports)
	out = append(out, core.NamedCounter{Name: "xbar.cells_swept", Value: x.cellsSwept})
	for j, g := range x.portGrants {
		out = append(out, core.NamedCounter{Name: fmt.Sprintf("xbar.port_grants.%03d", j), Value: g})
	}
	return out
}

// FreePorts returns how many ports are currently eligible (idle bus and
// ≥1 free resource).
func (x *Crossbar) FreePorts() int {
	n := 0
	for _, word := range x.eligBits {
		n += bits.OnesCount64(word)
	}
	return n
}

var _ core.Network = (*Crossbar)(nil)
var _ core.TelemetrySource = (*Crossbar)(nil)
var _ core.DetailSource = (*Crossbar)(nil)
