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
	// rot is the wiring ahead of every stage as a left rotation of the
	// n-bit wire index: 1 (the perfect shuffle) for OmegaWiring, 0
	// (straight through) for CubeWiring.
	rot int

	portBusy []bool
	free     []int
	// elig holds the paper's per-port Y signals as one register: bit j
	// is set iff port j has a free bus and ≥1 free resource. Every claim
	// and release of a bus or resource updates it, so a box output's
	// availability bit is one AND with its reach mask, and Acquire's
	// resource-block shortcut is elig == 0.
	elig uint64
	// occ holds the box outputs' occupancy bits, one register per stage:
	// bit w of occ[s] is set while the wire leaving stage s at position
	// w carries a circuit.
	occ    [maxStages]uint64
	stages [maxStages]stage // each stage's wiring in closed form
	// circuit[j] is the circuit output port j carries from its grant to
	// ReleasePath, as packed wire indices: the wire leaving stage s sits
	// in bits [6s, 6s+6). A port carries at most one circuit, so a grant
	// needs no path record.
	circuit []uint64

	tel core.Telemetry
	// Fine-grained telemetry (core.DetailSource): where in the pipeline
	// rejects happen and how grants spread over the output ports.
	rejectsByStage []int64
	portGrants     []int64
}

// stage is one stage of interchange boxes in closed form. A box's two
// output wires differ in bit pair, and the wire w leaving the stage
// statically reaches the output ports pat << ((w & low) << sh):
//
//   - OmegaWiring: a perfect shuffle precedes each later stage, so the
//     wire w leaving stage s reaches the block of 2^(n−1−s) ports
//     starting at (w mod 2^(s+1))·2^(n−1−s);
//   - CubeWiring: stages s+1, …, n−1 flip bits s+1, …, n−1, so the wire
//     reaches every 2^(s+1)-th port starting at w mod 2^(s+1).
type stage struct {
	pair, low int
	sh        uint
	pat       uint64
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

// maxStages is the stage count of the widest network, 64×64: the reach
// and occupancy registers are 64-bit words, and a circuit packs its six
// 6-bit wire indices into one.
const maxStages = 6

// New returns an N×N multistage RSIN with perPort resources per output
// port. N must be a power of two with 2 ≤ N ≤ 64 (the registers are
// 64-bit words; the paper's systems are at most 16×16).
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
		circuit:  make([]uint64, n),

		rejectsByStage: make([]int64, stages),
		portGrants:     make([]int64, n),
	}
	for i := range o.free {
		o.free[i] = perPort
	}
	for _, opt := range opts {
		//lint:ignore puredet functional options from the construction site; applied once while the network is built, before any simulation event runs
		opt(o)
	}
	if o.wiring == OmegaWiring {
		o.rot = 1
	}
	for s := 0; s < stages; s++ {
		span := 1 << (s + 1) // the reach of the wire w depends on w mod span
		st := stage{low: span - 1}
		switch o.wiring {
		case OmegaWiring:
			st.pair, st.sh = 1, uint(stages-1-s)
			st.pat = 1<<(1<<st.sh) - 1
		case CubeWiring:
			st.pair = 1 << s
			for j := 0; j < n; j += span {
				st.pat |= 1 << uint(j)
			}
		default:
			panic("omega: unknown wiring")
		}
		o.stages[s] = st
	}
	return o
}

// allPorts is the register with all n ports' Y signals set.
func allPorts(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// NewCube returns an indirect-binary-n-cube RSIN (the paper's CUBE
// configuration), equivalent to New with WithWiring(CubeWiring).
func NewCube(n, perPort int, opts ...Option) *Omega {
	return New(n, perPort, append([]Option{WithWiring(CubeWiring)}, opts...)...)
}

// shuffle maps processor pid to its stage-0 input wire, and an output
// wire of stage s to the input position of stage s+1: the perfect
// shuffle (rotate the n-bit index left by 1) for OmegaWiring, the
// identity (rotate by 0) for CubeWiring.
//
//lint:hotpath
func (o *Omega) shuffle(pos int) int {
	return (pos<<o.rot | pos>>(o.n-o.rot)) & (o.size - 1)
}

// pair returns the other wire of the box that owns input/output wire
// pos at stage s. A box's two input wires and two output wires carry
// the same pair of position indices: straight keeps the index, exchange
// swaps to the partner.
//
//lint:hotpath
func (o *Omega) pair(s, pos int) int { return pos ^ o.stages[s].pair }

// reaches reports whether the wire leaving stage s at position w
// statically reaches a port of mask. With mask the eligibility register
// this is the wire's availability bit: the backward-propagated status
// register content of the paper's Fig. 9/10 boxes.
//
//lint:hotpath
func (o *Omega) reaches(s, w int, mask uint64) bool {
	st := &o.stages[s]
	return st.pat<<(uint(w&st.low)<<st.sh)&mask != 0
}

// wireAt returns the wire leaving stage s in packed circuit c.
//
//lint:hotpath
func wireAt(c uint64, s int) int { return int(c >> (6 * uint(s)) & 63) }

// portEligible reports whether output port j can accept a new request:
// bus free and at least one free resource (the paper's Y signal).
//
//lint:hotpath
func (o *Omega) portEligible(j int) bool {
	return !o.portBusy[j] && o.free[j] > 0
}

// Acquire implements core.Network: route a destination-less request
// from processor pid to any eligible output port, using
// availability-guided switching with reject/backtrack. The grant's
// Rejects counts the backtracks of this route.
//
//lint:hotpath called once per allocation attempt in the event loop
func (o *Omega) Acquire(pid int) (core.Grant, bool) {
	return o.acquire(pid, o.elig)
}

// acquire is Acquire with the boxes' availability bits computed from
// avail: the live eligibility register, or AcquireBatch's phase-1 copy
// of it. The copy differs from the live register only in the ports
// granted since phase 1, and those grants hold the ports' last-stage
// wires, so at the last stage the copy answers as the live register
// would.
//
//lint:hotpath called once per allocation attempt in the event loop
func (o *Omega) acquire(pid int, avail uint64) (core.Grant, bool) {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	o.tel.Attempts++
	if avail == 0 {
		// Phase-1 status already tells the processor to stay queued.
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	rejBefore := o.tel.Rejects
	port, ok := o.route(pid, avail, &o.tel, o.rejectsByStage)
	if !ok {
		o.tel.Failures++
		o.tel.PathBlock++
		o.verify()
		return core.Grant{Rejects: o.tel.Rejects - rejBefore}, false
	}
	if invariant.Enabled() {
		// The paper's status-bit consistency guarantee: a forward-routed
		// request never lands on a port whose availability bit was
		// false — eligibility only decreases while AcquireBatch holds
		// its copy, so a port that is live-eligible at grant time had
		// its bit set in phase 1.
		invariant.Assert(avail&(1<<uint(port)) != 0, "omega",
			"request granted port %d whose phase-1 availability bit was false", port)
		invariant.Assert(o.portEligible(port), "omega",
			"routed to ineligible port %d (busy=%v free=%d)", port, o.portBusy[port], o.free[port])
	}
	o.claim(port)
	return core.Grant{Processor: pid, Port: port, Rejects: o.tel.Rejects - rejBefore}, true
}

// claim takes the bus and one resource of port j for a routed circuit.
//
//lint:hotpath
func (o *Omega) claim(j int) {
	o.portBusy[j] = true
	o.elig &^= 1 << uint(j)
	o.free[j]--
	o.tel.Grants++
	o.portGrants[j]++
	o.verify()
}

// route performs the availability-guided search for a request from
// processor pid. At each box the request is switched toward an output
// lane whose wire is free and whose availability bit is set — the wire
// reaches a port of avail (at the last stage, the wire is that port).
// When no lane qualifies, a reject travels back, and the previous
// stage's box frees its wire and re-examines the request for its
// alternate lane (or, without reroute, propagates the reject). The
// search keeps each stage's frame in two registers: the wire the stage
// holds, packed as in circuit, and whether that wire was the box's
// second choice. Box visits and rejects
// count into tel, and rejects by stage into byStage when it is non-nil.
// On success route holds the circuit's wires, records the circuit at
// its port and returns the port.
//
//lint:hotpath the routing search runs inside every Acquire
func (o *Omega) route(pid int, avail uint64, tel *core.Telemetry, byStage []int64) (int, bool) {
	var c uint64 // the wire each stage holds, packed as in circuit
	var alt uint // bit s: stage s holds its second-choice wire
	last := o.n - 1
	s, pos := 0, o.shuffle(pid)
	for {
		// The request enters the stage-s box on input wire pos; its
		// lanes are first and first^pair, tried in that order (k).
		tel.BoxVisits++
		st := &o.stages[s]
		first, k := pos&^st.pair, 0
		if o.policy == LaneRandom && o.rnd.Intn(2) == 1 {
			first |= st.pair
		}
		for {
			for ; k < 2; k++ {
				if w := first ^ k*st.pair; o.occ[s]&(1<<uint(w)) == 0 && o.reaches(s, w, avail) {
					break
				}
			}
			if k < 2 {
				break
			}
			// Dead end: the box rejects the request back to the previous
			// stage. Re-examining it there is a real traversal of that
			// box's control logic, so it counts as a box visit — giving
			// the paper's 3.5-boxes-per-request average in the Fig. 11
			// example.
			if s == 0 {
				return 0, false
			}
			s--
			st = &o.stages[s]
			held := wireAt(c, s)
			o.occ[s] &^= 1 << uint(held)
			tel.Rejects++
			tel.BoxVisits++
			if byStage != nil {
				byStage[s]++
			}
			// Resume the box's lane loop after the lane it held.
			first, k = held, 1
			if alt&(1<<uint(s)) != 0 || !o.reroute {
				k = 2
			}
		}
		out := first ^ k*st.pair
		o.occ[s] |= 1 << uint(out)
		c = c&^(63<<(6*uint(s))) | uint64(out)<<(6*uint(s))
		alt = alt&^(1<<uint(s)) | uint(k)<<uint(s)
		if s == last {
			o.circuit[out] = c
			return out, true
		}
		s, pos = s+1, o.shuffle(out)
	}
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
	// Phase 1: every box's availability bit is its reach mask ANDed with
	// the eligibility register, so freezing the register freezes them all.
	frozen := o.elig
	grants := make([]core.Grant, len(pids))
	oks := make([]bool, len(pids))
	for i, pid := range pids {
		grants[i], oks[i] = o.acquire(pid, frozen)
	}
	return grants, oks
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
	pos := o.shuffle(pid)
	dstBit := uint64(1) << uint(dst)
	var c uint64
	for s := 0; s < o.n; s++ {
		o.tel.BoxVisits++
		out := pos
		if !o.reaches(s, out, dstBit) {
			out = o.pair(s, pos)
		}
		if !o.reaches(s, out, dstBit) {
			panic("omega: destination unreachable (wiring bug)")
		}
		if o.occ[s]&(1<<uint(out)) != 0 {
			// Tag routing cannot reroute: the request is blocked.
			for i := 0; i < s; i++ {
				o.occ[i] &^= 1 << uint(wireAt(c, i))
			}
			o.tel.Failures++
			o.tel.PathBlock++
			return core.Grant{}, false
		}
		o.occ[s] |= 1 << uint(out)
		c |= uint64(out) << (6 * uint(s))
		pos = o.shuffle(out)
	}
	if port := wireAt(c, o.n-1); port != dst {
		panic("omega: tag routing reached wrong port")
	}
	o.circuit[dst] = c
	o.claim(dst)
	return core.Grant{Processor: pid, Port: dst}, true
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
// dynamic state: the occupancy registers are exactly the union of the
// busy ports' circuits (so every stage carries one wire per circuit),
// each circuit ends at its own port (the wire leaving stage n−1 at
// position w is port w), free-resource counts stay within [0, perPort],
// and the eligibility register matches a recount of the port state.
func (o *Omega) VerifyState() error {
	var held [maxStages]uint64
	for j, busy := range o.portBusy {
		if !busy {
			continue
		}
		c := o.circuit[j]
		if w := wireAt(c, o.n-1); w != j {
			return invariant.Errorf("omega", "port %d holds a circuit ending at port %d", j, w)
		}
		for s := 0; s < o.n; s++ {
			bit := uint64(1) << uint(wireAt(c, s))
			if held[s]&bit != 0 {
				return invariant.Errorf("omega",
					"stage %d wire %d carries two circuits (one ends at port %d)", s, wireAt(c, s), j)
			}
			held[s] |= bit
		}
	}
	for s, occ := range o.occ {
		if occ != held[s] {
			return invariant.Errorf("omega",
				"stage %d occupancy register %#x, busy ports' circuits hold %#x", s, occ, held[s])
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
	c := o.circuit[g.Port]
	for s := 0; s < o.n; s++ {
		bit := uint64(1) << uint(wireAt(c, s))
		if o.occ[s]&bit == 0 {
			panic("omega: ReleasePath on free wire")
		}
		o.occ[s] &^= bit
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

// ReleaseResource implements core.Network.
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
func (o *Omega) EntryWire(pid int) int { return o.shuffle(pid) }

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
func (o *Omega) NextInput(s, pos int) int { return o.shuffle(pos) }

// WireOccupied reports whether the output wire at position w of stage s
// currently carries a circuit.
func (o *Omega) WireOccupied(s, w int) bool { return o.occ[s]&(1<<uint(w)) != 0 }

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
	o.occ = [maxStages]uint64{}
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
