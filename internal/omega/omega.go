// Package omega implements the multistage-dynamic-network RSIN of paper
// Section V: an N×N network of 2×2 interchange boxes whose distributed
// control routes destination-less resource requests. The package is
// named for its primary instance, Lawrie's Omega network, but the
// paper's box algorithm "is applicable to other types of multistage
// networks as well" — the wiring between stages is pluggable, and the
// indirect binary n-cube of the paper's 16/1×16×16 CUBE/2 example is
// provided alongside the Omega wiring.
//
// Topology. For N = 2^n, the network has n stages of N/2 interchange
// boxes. A box can be set straight or exchange; two circuits may share
// a box when they use distinct input and output lanes (the leftover
// pairing is then forced, so per-wire occupancy fully captures
// box-state conflicts). The wiring determines which wire positions a
// stage's boxes pair and how output wires map to the next stage's
// input positions.
//
// Distributed scheduling (paper Fig. 10). Status information flows
// backward: each box output port carries a resource-availability bit —
// whether at least one output port reachable downstream has a free bus
// and a free resource. Requests flow forward: at each box the request
// is switched toward an output lane whose wire is unoccupied and whose
// availability bit is set; when no lane qualifies the request is
// rejected back to the previous stage, which tries its alternate lane —
// the reject/reroute mechanism of the paper. Because assumption (c)
// makes status propagation instantaneous, the search is a depth-first
// traversal whose dead-end descents are exactly the rejects the
// hardware would generate.
//
// The package also provides address-mapped tag routing (the
// conventional-network baseline of the paper's blocking-probability
// comparison): a request directed at a specific output port follows the
// unique path selected by the destination, and blocks if any wire on it
// is busy.
package omega

import (
	"fmt"
	"math/bits"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/rng"
)

// LanePolicy selects the order in which a box offers its output lanes
// to a request when both lanes qualify.
type LanePolicy int

const (
	// LaneUpperFirst always tries the lower-indexed output wire first —
	// a deterministic hardware priority.
	LaneUpperFirst LanePolicy = iota
	// LaneRandom picks the first lane uniformly at random, the
	// randomized variant the paper suggests for avoiding undue conflict
	// when synchronized requests enter together.
	LaneRandom
)

// String returns the policy name.
func (p LanePolicy) String() string {
	switch p {
	case LaneUpperFirst:
		return "upper-first"
	case LaneRandom:
		return "random"
	default:
		return fmt.Sprintf("LanePolicy(%d)", int(p))
	}
}

// Wiring selects the multistage interconnection pattern.
type Wiring int

const (
	// OmegaWiring is Lawrie's Omega network: a perfect shuffle precedes
	// every stage, and boxes pair adjacent wire positions.
	OmegaWiring Wiring = iota
	// CubeWiring is Pease's indirect binary n-cube: stage s pairs the
	// wire positions that differ in bit s, with straight-through wiring
	// between stages.
	CubeWiring
)

// String returns the wiring's name as the paper writes it.
func (w Wiring) String() string {
	switch w {
	case OmegaWiring:
		return "OMEGA"
	case CubeWiring:
		return "CUBE"
	default:
		return fmt.Sprintf("Wiring(%d)", int(w))
	}
}

// Omega is an N×N multistage RSIN with perPort resources behind each of
// its N output ports.
type Omega struct {
	n       int // log2(N)
	size    int // N
	perPort int
	policy  LanePolicy
	wiring  Wiring
	rnd     *rng.Source // used only by LaneRandom
	reroute bool        // backtracking reroute enabled (ablation: off = reject to source)

	portBusy []bool
	free     []int
	// elig holds the paper's per-port Y signals as one register: bit j
	// is set iff port j has a free bus and ≥1 free resource. Every claim
	// and release of a bus or resource updates it, so a box output's
	// availability bit is one AND with its reach mask, and Acquire's
	// resource-block shortcut is elig == 0.
	elig   uint64
	outOcc [][]bool // [stage][wire] output-wire occupancy
	// reach[s][w] is the bitmask of output ports statically reachable
	// from the wire leaving stage s at position w.
	reach [][]uint64
	// snap, when non-nil, freezes the availability bits: routing
	// decisions consult the snapshot instead of live state. Set during
	// AcquireBatch to model the paper's two-phase operation, where
	// phase-2 requests propagate against possibly outdated phase-1
	// status.
	snap [][]bool

	// pathPool recycles grant path records (the Partitioned dispatcher's
	// pool pattern): Acquire pops one, the final ReleaseResource pushes
	// it back, so steady-state grants allocate nothing. Stored as
	// pointers so placing one in core.Grant.Path boxes a pointer — free
	// — instead of copying a slice header into the interface.
	pathPool []*pathGrant

	tel core.Telemetry
	// Fine-grained telemetry (core.DetailSource): where in the pipeline
	// rejects happen and how grants spread over the output ports.
	rejectsByStage []int64
	portGrants     []int64
}

// Option configures a network.
type Option func(*Omega)

// WithLanePolicy sets the lane-preference policy (default LaneUpperFirst).
func WithLanePolicy(p LanePolicy) Option { return func(o *Omega) { o.policy = p } }

// WithSeed seeds the internal generator used by LaneRandom.
func WithSeed(seed uint64) Option { return func(o *Omega) { o.rnd = rng.New(seed) } }

// WithoutReroute disables in-network rerouting: a rejected request
// fails immediately instead of backtracking to try alternate paths.
// Used by the reroute-policy ablation.
func WithoutReroute() Option { return func(o *Omega) { o.reroute = false } }

// WithWiring selects the interconnection pattern (default OmegaWiring).
func WithWiring(w Wiring) Option { return func(o *Omega) { o.wiring = w } }

// New returns an N×N multistage RSIN with perPort resources per output
// port. N must be a power of two with 2 ≤ N ≤ 64 (the reach sets are
// 64-bit masks; the paper's systems are at most 16×16).
func New(n, perPort int, opts ...Option) *Omega {
	if n < 2 || n > 64 || n&(n-1) != 0 {
		panic(fmt.Sprintf("omega: size %d is not a power of two in [2,64]", n))
	}
	if perPort <= 0 {
		panic("omega: perPort must be positive")
	}
	stages := bits.Len(uint(n)) - 1
	o := &Omega{
		n:        stages,
		size:     n,
		perPort:  perPort,
		policy:   LaneUpperFirst,
		wiring:   OmegaWiring,
		rnd:      rng.New(0x0177e6a5),
		reroute:  true,
		portBusy: make([]bool, n),
		free:     make([]int, n),
		elig:     allPorts(n),
		outOcc:   make([][]bool, stages),

		rejectsByStage: make([]int64, stages),
		portGrants:     make([]int64, n),
	}
	for i := range o.free {
		o.free[i] = perPort
	}
	for s := range o.outOcc {
		o.outOcc[s] = make([]bool, n)
	}
	for _, opt := range opts {
		//lint:ignore puredet functional options from the construction site; applied once while the network is built, before any simulation event runs
		opt(o)
	}
	o.buildReach()
	return o
}

// allPorts is the register with all n ports' Y signals set.
func allPorts(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// NewCube returns an indirect-binary-n-cube RSIN (the paper's CUBE
// configuration), equivalent to New with WithWiring(CubeWiring).
func NewCube(n, perPort int, opts ...Option) *Omega {
	return New(n, perPort, append([]Option{WithWiring(CubeWiring)}, opts...)...)
}

// shuffle is the perfect shuffle: rotate the n-bit wire index left by 1.
//
//lint:hotpath
func (o *Omega) shuffle(pos int) int {
	return (pos<<1 | pos>>(o.n-1)) & (o.size - 1)
}

// entry returns the stage-0 input wire position of processor pid.
//
//lint:hotpath
func (o *Omega) entry(pid int) int {
	switch o.wiring {
	case OmegaWiring:
		return o.shuffle(pid)
	case CubeWiring:
		return pid
	default:
		panic("omega: unknown wiring")
	}
}

// pair returns the other wire of the box that owns input/output wire
// pos at stage s. A box's two input wires and two output wires carry
// the same pair of position indices: straight keeps the index, exchange
// swaps to the partner.
//
//lint:hotpath
func (o *Omega) pair(s, pos int) int {
	switch o.wiring {
	case OmegaWiring:
		return pos ^ 1
	case CubeWiring:
		return pos ^ (1 << s)
	default:
		panic("omega: unknown wiring")
	}
}

// next maps an output wire of stage s to the input position of stage
// s+1.
//
//lint:hotpath
func (o *Omega) next(s, pos int) int {
	switch o.wiring {
	case OmegaWiring:
		return o.shuffle(pos)
	case CubeWiring:
		return pos
	default:
		panic("omega: unknown wiring")
	}
}

// buildReach precomputes, for every stage-output wire, the bitmask of
// network output ports statically reachable downstream.
func (o *Omega) buildReach() {
	o.reach = make([][]uint64, o.n)
	// Last stage: wire w IS output port w.
	o.reach[o.n-1] = make([]uint64, o.size)
	for w := 0; w < o.size; w++ {
		o.reach[o.n-1][w] = 1 << uint(w)
	}
	for s := o.n - 2; s >= 0; s-- {
		o.reach[s] = make([]uint64, o.size)
		for w := 0; w < o.size; w++ {
			in := o.next(s, w)
			o.reach[s][w] = o.reach[s+1][in] | o.reach[s+1][o.pair(s+1, in)]
		}
	}
}

// portEligible reports whether output port j can accept a new request:
// bus free and at least one free resource (the paper's Y signal).
//
//lint:hotpath
func (o *Omega) portEligible(j int) bool {
	return !o.portBusy[j] && o.free[j] > 0
}

// avail is the availability bit of the wire leaving stage s at position
// w: whether any reachable output port is eligible. This is the
// backward-propagated status register content of the paper's Fig. 9/10
// boxes — live under instantaneous propagation (assumption (c)), or the
// frozen phase-1 value during AcquireBatch.
//
//lint:hotpath
func (o *Omega) avail(s, w int) bool {
	if o.snap != nil {
		return o.snap[s][w]
	}
	return o.reach[s][w]&o.elig != 0
}

// pathGrant records the claimed wires, innermost (last stage) first.
type pathGrant struct {
	wires []int
}

// takePath pops a recycled path record, or mints one on a cold pool.
// The wire slice comes back emptied with its capacity intact, so the
// mint happens at most once per concurrently outstanding grant.
//
//lint:hotpath
func (o *Omega) takePath() *pathGrant {
	if n := len(o.pathPool); n > 0 {
		pg := o.pathPool[n-1]
		o.pathPool = o.pathPool[:n-1]
		pg.wires = pg.wires[:0]
		return pg
	}
	//lint:ignore hotalloc cold-pool mint, amortized to zero once the pool warms; pinned by TestOmegaAcquireZeroAlloc
	return &pathGrant{wires: make([]int, 0, o.n)}
}

// putPath returns a path record to the pool.
//
//lint:hotpath
func (o *Omega) putPath(pg *pathGrant) {
	//lint:ignore hotalloc pool append reuses capacity after warm-up; pinned by TestOmegaAcquireZeroAlloc
	o.pathPool = append(o.pathPool, pg)
}

// Acquire implements core.Network: route a destination-less request
// from processor pid to any eligible output port, using
// availability-guided switching with reject/backtrack. The grant's
// Rejects counts the backtracks of this route.
//
//lint:hotpath called once per allocation attempt in the event loop
func (o *Omega) Acquire(pid int) (core.Grant, bool) {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	o.tel.Attempts++
	if o.elig == 0 {
		// Phase-1 status already tells the processor to stay queued.
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	rejBefore := o.tel.Rejects
	pg := o.takePath()
	port, ok := o.route(0, o.entry(pid), &pg.wires)
	if !ok {
		o.putPath(pg)
		o.tel.Failures++
		o.tel.PathBlock++
		o.verify()
		return core.Grant{Rejects: o.tel.Rejects - rejBefore}, false
	}
	invariant.Assert(!o.portBusy[port] && o.free[port] > 0, "omega",
		"routed to ineligible port %d (busy=%v free=%d)", port, o.portBusy[port], o.free[port])
	o.portBusy[port] = true
	o.elig &^= 1 << uint(port)
	o.free[port]--
	o.tel.Grants++
	o.portGrants[port]++
	o.verify()
	return core.Grant{Processor: pid, Port: port, Path: pg, Rejects: o.tel.Rejects - rejBefore}, true
}

// AcquireWouldFail implements core.AvailabilityHinter: when every
// output port's Y signal is down (no free bus with a free resource
// anywhere), Acquire is certain to fail on its resource-block shortcut,
// and the hint replicates that shortcut's telemetry exactly. When some
// port is eligible the hint answers false — the request may still
// path-block inside the boxes, which only the full routing DFS (with
// its per-stage reject telemetry) can decide.
//
//lint:hotpath probed by every wake pass
func (o *Omega) AcquireWouldFail(pid int) bool {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	if o.elig != 0 {
		return false
	}
	o.tel.Attempts++
	o.tel.Failures++
	o.tel.ResourceBlock++
	return true
}

// route performs the availability-guided DFS from the input wire at
// position pos of stage s. On success it claims the wires it used,
// appends them to *wires (last stage first), and returns the output
// port.
//
//lint:hotpath the routing DFS runs inside every Acquire
func (o *Omega) route(s, pos int, wires *[]int) (int, bool) {
	o.tel.BoxVisits++
	outs := [2]int{pos, o.pair(s, pos)}
	if outs[0] > outs[1] {
		outs[0], outs[1] = outs[1], outs[0]
	}
	first := 0
	if o.policy == LaneRandom {
		first = o.rnd.Intn(2)
	}
	for k := 0; k < 2; k++ {
		out := outs[first^k]
		if o.outOcc[s][out] {
			continue
		}
		if s == o.n-1 {
			// out is an output port.
			if !o.portEligible(out) {
				continue
			}
			o.outOcc[s][out] = true
			//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
			*wires = append(*wires, out)
			return out, true
		}
		if !o.avail(s, out) {
			continue
		}
		o.outOcc[s][out] = true
		port, ok := o.route(s+1, o.next(s, out), wires)
		if ok {
			//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
			*wires = append(*wires, out)
			return port, true
		}
		// Downstream dead end: a reject signal travels back and this
		// box re-examines the request for its alternate lane (or
		// propagates the reject). The re-examination is a real
		// traversal of this box's control logic, so it counts as a
		// box visit — giving the paper's 3.5-boxes-per-request average
		// in the Fig. 11 example.
		o.outOcc[s][out] = false
		o.tel.Rejects++
		o.tel.BoxVisits++
		o.rejectsByStage[s]++
		if !o.reroute {
			return 0, false
		}
	}
	return 0, false
}

// AcquireBatch routes a set of simultaneous requests with the paper's
// two-phase operation (Fig. 11): phase 1 propagates the status of the
// resources back through the boxes and freezes the availability
// registers; phase 2 propagates all the requests against that frozen —
// and progressively outdated — status. Wrong decisions therefore occur
// exactly as in the paper: a request can chase a resource that a
// concurrent request has just claimed, be rejected, and reroute.
//
// The returned slices are parallel to pids; ok[i] reports whether
// request i was granted.
func (o *Omega) AcquireBatch(pids []int) ([]core.Grant, []bool) {
	// Phase 1: snapshot the availability registers.
	snap := make([][]bool, o.n)
	for s := range snap {
		snap[s] = make([]bool, o.size)
		for w := 0; w < o.size; w++ {
			snap[s][w] = o.avail(s, w)
		}
	}
	o.snap = snap
	defer func() { o.snap = nil }()

	grants := make([]core.Grant, len(pids))
	oks := make([]bool, len(pids))
	for i, pid := range pids {
		grants[i], oks[i] = o.acquireStale(pid)
	}
	return grants, oks
}

// acquireStale is Acquire with the availability shortcut evaluated from
// the frozen snapshot (the processor submitted because phase-1 status
// said resources exist).
//
//lint:hotpath per-request half of the two-phase batch
func (o *Omega) acquireStale(pid int) (core.Grant, bool) {
	o.tel.Attempts++
	anyAvail := false
	for w := 0; w < o.size; w++ {
		if o.snap[o.n-1][w] {
			anyAvail = true
			break
		}
	}
	if !anyAvail {
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	rejBefore := o.tel.Rejects
	pg := o.takePath()
	port, ok := o.route(0, o.entry(pid), &pg.wires)
	if !ok {
		o.putPath(pg)
		o.tel.Failures++
		o.tel.PathBlock++
		o.verify()
		return core.Grant{Rejects: o.tel.Rejects - rejBefore}, false
	}
	// The paper's status-bit consistency guarantee: a forward-routed
	// request never lands on a port whose frozen availability bit was
	// false — eligibility only decreases while the snapshot is held, so
	// a port that is live-eligible at grant time must have had its bit
	// set in phase 1.
	invariant.Assert(o.snap[o.n-1][port], "omega",
		"request granted port %d whose phase-1 availability bit was false", port)
	invariant.Assert(!o.portBusy[port] && o.free[port] > 0, "omega",
		"routed to ineligible port %d (busy=%v free=%d)", port, o.portBusy[port], o.free[port])
	o.portBusy[port] = true
	o.elig &^= 1 << uint(port)
	o.free[port]--
	o.tel.Grants++
	o.portGrants[port]++
	o.verify()
	return core.Grant{Processor: pid, Port: port, Path: pg, Rejects: o.tel.Rejects - rejBefore}, true
}

// AcquireTag routes a request from pid to the specific output port dst
// using conventional destination-tag routing (the address-mapping
// baseline): the path is unique, and the request blocks if any wire on
// it is occupied or the port is ineligible. On success the path and one
// resource are claimed exactly as in Acquire. The routing decision at
// each box is generic over the wiring: the request exits through the
// output wire whose static reach set contains dst.
//
//lint:hotpath the tag-routing baseline's per-request path
func (o *Omega) AcquireTag(pid, dst int) (core.Grant, bool) {
	if pid < 0 || pid >= o.size || dst < 0 || dst >= o.size {
		panic("omega: AcquireTag index out of range")
	}
	o.tel.Attempts++
	if !o.portEligible(dst) {
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	pg := o.takePath()
	pos := o.entry(pid)
	dstBit := uint64(1) << uint(dst)
	for s := 0; s < o.n; s++ {
		o.tel.BoxVisits++
		out := pos
		if o.reach[s][out]&dstBit == 0 {
			out = o.pair(s, pos)
		}
		if o.reach[s][out]&dstBit == 0 {
			panic("omega: destination unreachable (wiring bug)")
		}
		if o.outOcc[s][out] {
			// Tag routing cannot reroute: the request is blocked.
			for i, w := range pg.wires {
				o.outOcc[i][w] = false
			}
			o.putPath(pg)
			o.tel.Failures++
			o.tel.PathBlock++
			return core.Grant{}, false
		}
		o.outOcc[s][out] = true
		//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
		pg.wires = append(pg.wires, out)
		pos = o.next(s, out)
	}
	port := pg.wires[o.n-1]
	if port != dst {
		panic("omega: tag routing reached wrong port")
	}
	o.portBusy[port] = true
	o.elig &^= 1 << uint(port)
	o.free[port]--
	o.tel.Grants++
	o.portGrants[port]++
	o.verify()
	// The tag loop collected the wires outermost-first; ReleasePath
	// expects innermost-first, so reverse in place.
	for i, j := 0, len(pg.wires)-1; i < j; i, j = i+1, j-1 {
		pg.wires[i], pg.wires[j] = pg.wires[j], pg.wires[i]
	}
	return core.Grant{Processor: pid, Port: port, Path: pg}, true
}

// verify panics with a *invariant.Violation when the runtime checks
// are on and the dynamic state is structurally inconsistent.
func (o *Omega) verify() {
	if !invariant.Enabled() {
		return
	}
	if err := o.VerifyState(); err != nil {
		panic(err)
	}
}

// VerifyState checks the structural consistency of the network's
// dynamic state: every stage carries the same number of circuits (a
// routed circuit claims exactly one output wire per stage), the
// last-stage wire occupancy mirrors the port-busy flags (the wire
// leaving stage n−1 at position w is port w), and free-resource
// counts stay within [0, perPort].
func (o *Omega) VerifyState() error {
	occ0 := 0
	for w := 0; w < o.size; w++ {
		if o.outOcc[0][w] {
			occ0++
		}
	}
	for s := 1; s < o.n; s++ {
		c := 0
		for w := 0; w < o.size; w++ {
			if o.outOcc[s][w] {
				c++
			}
		}
		if c != occ0 {
			return invariant.Errorf("omega",
				"stage %d carries %d circuits while stage 0 carries %d", s, c, occ0)
		}
	}
	for w := 0; w < o.size; w++ {
		if o.outOcc[o.n-1][w] != o.portBusy[w] {
			return invariant.Errorf("omega",
				"port %d: last-stage wire occupancy %v disagrees with port-busy flag %v",
				w, o.outOcc[o.n-1][w], o.portBusy[w])
		}
	}
	for j, f := range o.free {
		if f < 0 || f > o.perPort {
			return invariant.Errorf("omega",
				"port %d free-resource count %d outside [0,%d]", j, f, o.perPort)
		}
	}
	var elig uint64
	for j := 0; j < o.size; j++ {
		if o.portEligible(j) {
			elig |= 1 << uint(j)
		}
	}
	if elig != o.elig {
		return invariant.Errorf("omega",
			"eligibility register drifted: register %#x, recount %#x", o.elig, elig)
	}
	return nil
}

// ReleasePath implements core.Network: free the circuit's wires and the
// output bus; the resource keeps serving.
//
//lint:hotpath
func (o *Omega) ReleasePath(g core.Grant) {
	pg := g.Path.(*pathGrant)
	// wires were appended innermost-first: wires[0] is the last stage.
	for i, w := range pg.wires {
		s := o.n - 1 - i
		if !o.outOcc[s][w] {
			panic("omega: ReleasePath on free wire")
		}
		o.outOcc[s][w] = false
	}
	if !o.portBusy[g.Port] {
		panic("omega: ReleasePath with idle port")
	}
	o.portBusy[g.Port] = false
	if o.free[g.Port] > 0 {
		o.elig |= 1 << uint(g.Port)
	}
	o.verify()
}

// ReleaseResource implements core.Network. This is the grant's final
// release (ReleasePath precedes it), so the path record goes back to
// the pool here.
//
//lint:hotpath
func (o *Omega) ReleaseResource(g core.Grant) {
	if o.free[g.Port] >= o.perPort {
		panic("omega: ReleaseResource overflow")
	}
	o.free[g.Port]++
	if o.free[g.Port] == 1 && !o.portBusy[g.Port] {
		o.elig |= 1 << uint(g.Port)
	}
	if pg, ok := g.Path.(*pathGrant); ok {
		o.putPath(pg)
	}
	o.verify()
}

// Processors implements core.Network.
func (o *Omega) Processors() int { return o.size }

// Ports implements core.Network.
func (o *Omega) Ports() int { return o.size }

// TotalResources implements core.Network.
func (o *Omega) TotalResources() int { return o.size * o.perPort }

// Name implements core.Network.
func (o *Omega) Name() string {
	return fmt.Sprintf("%s(%dx%d,r=%d)", o.wiring, o.size, o.size, o.perPort)
}

// Telemetry implements core.TelemetrySource.
func (o *Omega) Telemetry() core.Telemetry { return o.tel }

// DetailCounters implements core.DetailSource: rejects broken down by
// the stage whose box bounced the request (where in the pipeline dead
// ends concentrate) and the per-port grant distribution.
func (o *Omega) DetailCounters() []core.NamedCounter {
	out := make([]core.NamedCounter, 0, o.n+o.size)
	for s, r := range o.rejectsByStage {
		out = append(out, core.NamedCounter{Name: fmt.Sprintf("omega.rejects.stage%02d", s), Value: r})
	}
	for j, g := range o.portGrants {
		out = append(out, core.NamedCounter{Name: fmt.Sprintf("omega.port_grants.%03d", j), Value: g})
	}
	return out
}

// Stages returns the number of interchange-box stages (log2 N).
func (o *Omega) Stages() int { return o.n }

// EntryWire returns the stage-0 input wire position of processor pid.
// Together with BoxOutputs and NextInput it exposes the wire-level DAG
// for external schedulers (e.g. the max-flow optimal allocator).
func (o *Omega) EntryWire(pid int) int { return o.entry(pid) }

// BoxOutputs returns the two candidate output wires of the box entered
// at input wire pos of stage s.
func (o *Omega) BoxOutputs(s, pos int) [2]int {
	a, b := pos, o.pair(s, pos)
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// NextInput maps an output wire of stage s to the input position of
// stage s+1.
func (o *Omega) NextInput(s, pos int) int { return o.next(s, pos) }

// WireOccupied reports whether the output wire at position w of stage s
// currently carries a circuit.
func (o *Omega) WireOccupied(s, w int) bool { return o.outOcc[s][w] }

// PortEligible reports whether output port j can accept a new request
// (bus free and at least one free resource) — the paper's Y signal.
func (o *Omega) PortEligible(j int) bool { return o.portEligible(j) }

// WiringKind returns the network's interconnection pattern.
func (o *Omega) WiringKind() Wiring { return o.wiring }

// Reset clears all dynamic state (circuits, reservations, telemetry),
// returning the network to cold-start. Used by the static blocking
// experiments that evaluate many independent request sets.
func (o *Omega) Reset() {
	for i := range o.portBusy {
		o.portBusy[i] = false
		o.free[i] = o.perPort
	}
	o.elig = allPorts(o.size)
	for s := range o.outOcc {
		for w := range o.outOcc[s] {
			o.outOcc[s][w] = false
		}
	}
	o.tel = core.Telemetry{}
	for i := range o.rejectsByStage {
		o.rejectsByStage[i] = 0
	}
	for i := range o.portGrants {
		o.portGrants[i] = 0
	}
	o.verify()
}

// SetResourceAvailability overrides the free-resource count of port j
// (clamped to [0, perPort]). The static blocking experiments use it to
// impose the paper's "resources 0, 1, 2 are available, others busy"
// scenarios.
func (o *Omega) SetResourceAvailability(j, freeCount int) {
	if freeCount < 0 {
		freeCount = 0
	}
	if freeCount > o.perPort {
		freeCount = o.perPort
	}
	o.free[j] = freeCount
	if o.portEligible(j) {
		o.elig |= 1 << uint(j)
	} else {
		o.elig &^= 1 << uint(j)
	}
	o.verify()
}

// FreeResources returns the current free-resource count at port j.
func (o *Omega) FreeResources(j int) int { return o.free[j] }

var _ core.Network = (*Omega)(nil)
var _ core.TelemetrySource = (*Omega)(nil)
var _ core.DetailSource = (*Omega)(nil)
var _ core.AvailabilityHinter = (*Omega)(nil)
