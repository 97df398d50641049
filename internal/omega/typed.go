package omega

import (
	"fmt"

	"rsin/internal/core"
)

// TypedOmega is the paper's Section V extension of the multistage RSIN
// to multiple resource types: the request signal Q is augmented with
// the requested type, the status signal S is sent once per type, and
// every box output port conceptually holds one availability register
// per type. The scheduling overhead grows to O(t·log₂ N) for t types —
// one status bit per type per link — while routing remains fully
// distributed.
//
// In the degenerate case where each output port carries a different
// type, the type number uniquely identifies the destination port and
// the network operates in conventional address-mapping mode — resource
// accesses generalize address-mapped accesses (paper Section VII). This
// equivalence is asserted in the tests.
//
// A typed grant is a plain core.Grant: the circuit lives at its port in
// the untyped substrate, and the caller, which chose the type in
// AcquireType, names it again in ReleaseResource.
type TypedOmega struct {
	net   *Omega // untyped substrate: wires, ports, occupancy
	types int
	// free[j][t]: free resources of type t behind port j.
	free [][]int
	cap  [][]int
	tel  core.Telemetry
}

// NewTyped builds an N×N multistage RSIN whose output port j carries
// pools[j][t] resources of type t. Every pools[j] must have the same
// length (the number of types). Options are those of New.
func NewTyped(n int, pools [][]int, opts ...Option) *TypedOmega {
	if len(pools) != n {
		panic(fmt.Sprintf("omega: %d port pools for %d ports", len(pools), n))
	}
	types := len(pools[0])
	if types == 0 {
		panic("omega: at least one resource type required")
	}
	to := &TypedOmega{
		types: types,
		free:  make([][]int, n),
		cap:   make([][]int, n),
	}
	total := 0
	for j, pool := range pools {
		if len(pool) != types {
			panic(fmt.Sprintf("omega: port %d has %d types, want %d", j, len(pool), types))
		}
		to.free[j] = append([]int(nil), pool...)
		to.cap[j] = append([]int(nil), pool...)
		for _, c := range pool {
			if c < 0 {
				panic("omega: negative resource count")
			}
			total += c
		}
	}
	if total == 0 {
		panic("omega: no resources in any pool")
	}
	// The substrate's per-port counters are unused; give it capacity 1
	// everywhere and manage eligibility here.
	to.net = New(n, maxPool(pools), opts...)
	return to
}

func maxPool(pools [][]int) int {
	m := 1
	for _, pool := range pools {
		s := 0
		for _, c := range pool {
			s += c
		}
		if s > m {
			m = s
		}
	}
	return m
}

// eligible reports whether port j can accept a request for type t.
//
//lint:hotpath
func (to *TypedOmega) eligible(j, t int) bool {
	return !to.net.portBusy[j] && to.free[j][t] > 0
}

// eligibleMaskType is the per-type analogue of the untyped network's
// eligibility register, computed once per request: bit j is port j's
// type-t availability.
//
//lint:hotpath
func (to *TypedOmega) eligibleMaskType(t int) uint64 {
	var m uint64
	for j := 0; j < to.net.size; j++ {
		if to.eligible(j, t) {
			m |= 1 << uint(j)
		}
	}
	return m
}

// AcquireType routes a request for one resource of type t from
// processor pid, using the same availability-guided reject/reroute
// search as the untyped network but consulting the type-t availability
// registers. The grant's Rejects counts the backtracks of this route.
//
//lint:hotpath called once per allocation attempt when typed networks drive the engine
func (to *TypedOmega) AcquireType(pid, t int) (core.Grant, bool) {
	if t < 0 || t >= to.types {
		panic(fmt.Sprintf("omega: type %d out of range", t))
	}
	if pid < 0 || pid >= to.net.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	to.tel.Attempts++
	elig := to.eligibleMaskType(t)
	if elig == 0 {
		to.tel.Failures++
		to.tel.ResourceBlock++
		return core.Grant{}, false
	}
	rejBefore := to.tel.Rejects
	// The substrate's search with the type-t availability registers; it
	// counts into the typed network's telemetry.
	port, ok := to.net.route(pid, elig, &to.tel, nil)
	if !ok {
		to.tel.Failures++
		to.tel.PathBlock++
		return core.Grant{Rejects: to.tel.Rejects - rejBefore}, false
	}
	to.net.portBusy[port] = true
	// The substrate's untyped free counters stay at capacity under typed
	// grants, so its eligibility register is exactly !portBusy: clear
	// the port's bit, which the substrate's ReleasePath sets again.
	to.net.elig &^= 1 << uint(port)
	to.free[port][t]--
	to.tel.Grants++
	return core.Grant{Processor: pid, Port: port, Rejects: to.tel.Rejects - rejBefore}, true
}

// ReleasePath frees the circuit; the typed resource keeps serving.
//
//lint:hotpath
func (to *TypedOmega) ReleasePath(g core.Grant) { to.net.ReleasePath(g) }

// ReleaseResource returns g's resource, of type t, to its port's pool
// after service. t must be the type g was acquired for in AcquireType.
//
//lint:hotpath
func (to *TypedOmega) ReleaseResource(g core.Grant, t int) {
	if to.free[g.Port][t] >= to.cap[g.Port][t] {
		panic("omega: typed ReleaseResource overflow")
	}
	to.free[g.Port][t]++
}

// Processors returns the number of processor connections.
func (to *TypedOmega) Processors() int { return to.net.size }

// Ports returns the number of output ports.
func (to *TypedOmega) Ports() int { return to.net.size }

// Types returns the number of resource types.
func (to *TypedOmega) Types() int { return to.types }

// TotalResources returns the number of resources across all pools.
func (to *TypedOmega) TotalResources() int {
	total := 0
	for _, pool := range to.cap {
		for _, c := range pool {
			total += c
		}
	}
	return total
}

// FreeOfType returns the free count of type t at port j.
func (to *TypedOmega) FreeOfType(j, t int) int { return to.free[j][t] }

// Name describes the network.
func (to *TypedOmega) Name() string {
	return fmt.Sprintf("TYPED-%s(%dx%d,t=%d)", to.net.wiring, to.net.size, to.net.size, to.types)
}

// Telemetry returns the typed network's counters.
func (to *TypedOmega) Telemetry() core.Telemetry { return to.tel }

// StatusOverhead returns the paper's per-request status overhead bound
// for this network: O(t·log₂ N) — one availability bit per type on
// each of the log₂ N stages.
func (to *TypedOmega) StatusOverhead() int { return to.types * to.net.n }

// Bind adapts the typed network to core.Network for the discrete-event
// engine by fixing the resource type each processor requests (a system
// of processor classes). typeOf[pid] selects processor pid's type.
func (to *TypedOmega) Bind(typeOf []int) core.Network {
	if len(typeOf) != to.net.size {
		panic("omega: typeOf length mismatch")
	}
	for _, t := range typeOf {
		if t < 0 || t >= to.types {
			panic("omega: typeOf entry out of range")
		}
	}
	return &boundTyped{to: to, typeOf: append([]int(nil), typeOf...)}
}

type boundTyped struct {
	to     *TypedOmega
	typeOf []int
}

//lint:hotpath
func (b *boundTyped) Acquire(pid int) (core.Grant, bool) {
	return b.to.AcquireType(pid, b.typeOf[pid])
}

//lint:hotpath
func (b *boundTyped) ReleasePath(g core.Grant) { b.to.ReleasePath(g) }

//lint:hotpath
func (b *boundTyped) ReleaseResource(g core.Grant) { b.to.ReleaseResource(g, b.typeOf[g.Processor]) }
func (b *boundTyped) Processors() int              { return b.to.Processors() }
func (b *boundTyped) Ports() int                   { return b.to.Ports() }
func (b *boundTyped) TotalResources() int          { return b.to.TotalResources() }
func (b *boundTyped) Name() string                 { return b.to.Name() + "+bound" }
func (b *boundTyped) Telemetry() core.Telemetry    { return b.to.Telemetry() }

var _ core.Network = (*boundTyped)(nil)
var _ core.TelemetrySource = (*boundTyped)(nil)
