// Package core defines the resource-sharing interconnection network
// (RSIN) abstraction that is the paper's central contribution: a network
// between processors and a pool of identical resources in which a
// request carries no destination address — the network itself locates a
// free resource and establishes a circuit-switched connection to it.
//
// A Network implementation encapsulates one distributed scheduling
// discipline (single shared bus, crossbar of shared buses, Omega network
// with status propagation, …). The discrete-event engine in
// internal/sim drives any Network through the paper's workload model;
// the Partitioned combinator composes independent sub-networks into the
// paper's i×j×k configurations.
package core

import "fmt"

// Grant records one successful resource allocation: the circuit-switched
// connection from a processor to an output port, plus the reserved
// resource behind that port. The processor holds the network path for
// the duration of the task transmission and the resource for the
// duration of service; the two are released independently
// (paper Section II: the connection is broken after transmission while
// the resource continues processing).
//
// Processor is the pid passed to the Acquire call that returned the
// grant. Every successful Acquire must set it: sim.Run finds the
// transmitting processor of a completed transmission through it, and
// its invariant checks reject a grant whose Processor differs.
//
// Rejects is the number of in-network rejects (Omega backtracks) the
// Acquire call that returned the grant generated, the same count it
// added to the network's Telemetry.Rejects. Acquire sets it on failure
// too, where the returned Grant is otherwise zero. Networks that never
// reject inside the network leave it 0.
type Grant struct {
	Processor int   // requesting processor (global index)
	Port      int   // output port the request was routed to (global index)
	Path      any   // network-private path bookkeeping; owned by the issuing Network
	Rejects   int64 // in-network rejects of the Acquire call
}

// Network is a resource-sharing interconnection network supporting
// distributed scheduling of single-resource requests on one resource
// type (the system class the paper analyzes).
//
// Implementations are not safe for concurrent use; the discrete-event
// engine is single-threaded, mirroring the paper's global-time Markov
// and simulation models.
type Network interface {
	// Acquire attempts to connect processor pid to any free resource
	// reachable through the network. On success it reserves the
	// resource, holds the path, and returns the grant. It fails when
	// every reachable resource is busy or every path is blocked —
	// the two blockage sources the paper distinguishes. Either way the
	// returned Grant's Rejects counts the attempt's in-network rejects;
	// a failed attempt's Grant carries nothing else.
	Acquire(pid int) (Grant, bool)

	// ReleasePath tears down the network path of g after task
	// transmission completes. The reserved resource transitions from
	// "reserved for transmission" to "serving".
	ReleasePath(g Grant)

	// ReleaseResource frees g's resource after service completes.
	ReleaseResource(g Grant)

	// Processors returns the number of processor (input) connections.
	Processors() int

	// Ports returns the number of output ports.
	Ports() int

	// TotalResources returns the number of resources behind all ports.
	TotalResources() int

	// Name returns a short human-readable description of the network.
	Name() string
}

// Telemetry holds optional counters a Network may expose for the
// experiments: blockage accounting and routing effort.
type Telemetry struct {
	Attempts      int64 // Acquire calls
	Failures      int64 // Acquire calls returning false
	ResourceBlock int64 // failures with every reachable resource busy
	PathBlock     int64 // failures caused by network-path blockage only
	Rejects       int64 // in-network rejects (Omega backtracks)
	BoxVisits     int64 // interchange boxes traversed by granted requests
	Grants        int64 // successful Acquires
}

// TelemetrySource is implemented by networks that collect Telemetry.
type TelemetrySource interface {
	Telemetry() Telemetry
}

// AvailabilityHinter was an optional Network extension through which
// the simulation engine asked whether an Acquire was certain to fail
// before making it. No network implements it any more and the engine
// never asks: every network's Acquire opens with the same O(1) status
// test (the bus's free count, the crossbar's eligibility bitset,
// Omega's availability register), so an allocation attempt is one
// Acquire call.
//
// Deprecated: call Acquire. The benchmark module's network decorators
// (_rsinbench/decor.go) still name this type; it goes together with
// their timedHinter and nopHinter when the benchmark's per-layer
// metrics are reworked.
type AvailabilityHinter interface {
	AcquireWouldFail(pid int) bool
}

// NamedCounter is one fine-grained telemetry counter exposed by a
// network: a stable name (used as a metrics key, so it must be
// deterministic across runs) and its value.
type NamedCounter struct {
	Name  string
	Value int64
}

// DetailSource is implemented by networks that expose fine-grained
// counters beyond the aggregate Telemetry struct — per-stage rejects,
// per-port grants, scan effort. The returned slice must be ordered
// deterministically (by construction, not by map iteration).
type DetailSource interface {
	DetailCounters() []NamedCounter
}

// Partitioned composes i independent sub-networks into one system, the
// paper's p/i×j×k notation: processors are assigned to sub-networks in
// contiguous blocks of j = p/i, and each sub-network owns its own output
// ports and resources. Requests never cross partitions — exactly the
// isolation that makes the paper's per-bus analysis of partitioned
// systems exact.
type Partitioned struct {
	subs     []Network
	perSub   int // processors per sub-network
	ports    int
	resTotal int
	name     string

	portBase []int // cumulative port offset of each partition
	// grantPool recycles partGrant records so steady-state Acquire does
	// not allocate. A record returns to the pool at ReleaseResource: the
	// engine's task lifecycle releases the path at transmit end and the
	// resource at service end, so the resource release is always the
	// grant's final use.
	grantPool []*partGrant
}

// NewPartitioned builds a partitioned system from identical
// sub-networks. All sub-networks must have the same processor count.
func NewPartitioned(subs []Network) *Partitioned {
	if len(subs) == 0 {
		panic("core: NewPartitioned requires at least one sub-network")
	}
	per := subs[0].Processors()
	ports, res := 0, 0
	portBase := make([]int, len(subs))
	for i, s := range subs {
		if s.Processors() != per {
			panic("core: sub-networks must have identical processor counts")
		}
		portBase[i] = ports
		ports += s.Ports()
		res += s.TotalResources()
	}
	return &Partitioned{
		subs:     subs,
		perSub:   per,
		ports:    ports,
		resTotal: res,
		name:     fmt.Sprintf("%dx(%s)", len(subs), subs[0].Name()),
		portBase: portBase,
	}
}

// partGrant wraps a sub-network grant with its partition index and
// the partition's global processor block [lo, hi).
type partGrant struct {
	sub, lo, hi int
	inner       Grant
}

// Peers returns the processor block [lo, hi) of the sub-network that
// issued g when g is a Partitioned grant: requests never cross
// partitions, so releasing g can unblock only those processors. ok is
// false for any other grant, meaning the whole network. Call it before
// g's ReleaseResource, which recycles the record it reads.
//
//lint:hotpath read on every release
func Peers(g Grant) (lo, hi int, ok bool) {
	pg, ok := g.Path.(*partGrant)
	if !ok {
		return 0, 0, false
	}
	return pg.lo, pg.hi, true
}

// Acquire implements Network by delegating to pid's partition.
//
//lint:hotpath called once per allocation attempt in the event loop
func (p *Partitioned) Acquire(pid int) (Grant, bool) {
	sub := pid / p.perSub
	if sub < 0 || sub >= len(p.subs) {
		panic(fmt.Sprintf("core: processor %d outside partitioned system", pid))
	}
	g, ok := p.subs[sub].Acquire(pid % p.perSub)
	if !ok {
		return Grant{Rejects: g.Rejects}, false
	}
	var pg *partGrant
	if n := len(p.grantPool); n > 0 {
		pg = p.grantPool[n-1]
		p.grantPool = p.grantPool[:n-1]
	} else {
		//lint:ignore hotalloc cold-pool mint, amortized to zero once the pool warms; pinned by TestRunSteadyStateZeroAlloc
		pg = new(partGrant)
	}
	pg.sub, pg.inner = sub, g
	pg.lo = sub * p.perSub
	pg.hi = pg.lo + p.perSub
	return Grant{
		Processor: pid,
		Port:      p.portBase[sub] + g.Port,
		Path:      pg,
		Rejects:   g.Rejects,
	}, true
}

// ReleasePath implements Network.
//
//lint:hotpath
func (p *Partitioned) ReleasePath(g Grant) {
	pg := g.Path.(*partGrant)
	p.subs[pg.sub].ReleasePath(pg.inner)
}

// ReleaseResource implements Network. This is the grant's final use
// (see grantPool), so the partGrant record is recycled here.
//
//lint:hotpath
func (p *Partitioned) ReleaseResource(g Grant) {
	pg := g.Path.(*partGrant)
	p.subs[pg.sub].ReleaseResource(pg.inner)
	//lint:ignore hotalloc pool append reuses capacity after warm-up; pinned by TestRunSteadyStateZeroAlloc
	p.grantPool = append(p.grantPool, pg)
}

// Processors implements Network.
func (p *Partitioned) Processors() int { return p.perSub * len(p.subs) }

// Ports implements Network.
func (p *Partitioned) Ports() int { return p.ports }

// TotalResources implements Network.
func (p *Partitioned) TotalResources() int { return p.resTotal }

// Name implements Network.
func (p *Partitioned) Name() string { return p.name }

// Telemetry aggregates telemetry across partitions that expose it.
func (p *Partitioned) Telemetry() Telemetry {
	var t Telemetry
	for _, s := range p.subs {
		if ts, ok := s.(TelemetrySource); ok {
			st := ts.Telemetry()
			t.Attempts += st.Attempts
			t.Failures += st.Failures
			t.ResourceBlock += st.ResourceBlock
			t.PathBlock += st.PathBlock
			t.Rejects += st.Rejects
			t.BoxVisits += st.BoxVisits
			t.Grants += st.Grants
		}
	}
	return t
}

// DetailCounters aggregates fine-grained counters across partitions,
// prefixing each name with its partition index so per-partition load
// imbalance stays visible.
func (p *Partitioned) DetailCounters() []NamedCounter {
	var out []NamedCounter
	for i, s := range p.subs {
		if ds, ok := s.(DetailSource); ok {
			for _, c := range ds.DetailCounters() {
				out = append(out, NamedCounter{
					Name:  fmt.Sprintf("sub%02d.%s", i, c.Name),
					Value: c.Value,
				})
			}
		}
	}
	return out
}

var _ Network = (*Partitioned)(nil)
var _ TelemetrySource = (*Partitioned)(nil)
var _ DetailSource = (*Partitioned)(nil)
