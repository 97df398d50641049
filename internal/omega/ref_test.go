package omega

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/rng"
)

// refWiring is the wiring as the package documents it, written apart
// from the closed-form stage registers the network routes with.
type refWiring struct {
	next func(pos int) int    // stage output (or processor) → next stage's input
	pair func(s, pos int) int // the other wire of pos's box at stage s
}

func newRefWiring(o *Omega) refWiring {
	if o.wiring == OmegaWiring {
		// A perfect shuffle precedes every stage; boxes pair adjacent wires.
		return refWiring{
			next: func(pos int) int { return (pos<<1 | pos>>(o.n-1)) & (o.size - 1) },
			pair: func(_, pos int) int { return pos ^ 1 },
		}
	}
	// Straight-through wiring; stage s pairs the wires that differ in bit s.
	return refWiring{
		next: func(pos int) int { return pos },
		pair: func(s, pos int) int { return pos ^ 1<<s },
	}
}

// refReach is the reach table the network kept before its closed-form
// masks: for every stage-output wire, the bitmask of output ports
// statically reachable downstream, propagated back from the last stage
// (whose wire w is port w) through the wiring.
func refReach(o *Omega) [][]uint64 {
	wr := newRefWiring(o)
	reach := make([][]uint64, o.n)
	reach[o.n-1] = make([]uint64, o.size)
	for w := range reach[o.n-1] {
		reach[o.n-1][w] = 1 << uint(w)
	}
	for s := o.n - 2; s >= 0; s-- {
		reach[s] = make([]uint64, o.size)
		for w := range reach[s] {
			in := wr.next(w)
			reach[s][w] = reach[s+1][in] | reach[s+1][wr.pair(s+1, in)]
		}
	}
	return reach
}

// circuitWires unpacks the circuit port j carries, last stage first.
func circuitWires(o *Omega, j int) []int {
	wires := make([]int, o.n)
	for s := range wires {
		wires[o.n-1-s] = wireAt(o.circuit[j], s)
	}
	return wires
}

// refNet routes requests the way the network did before its registers:
// wire occupancy as a [stage][wire] grid, every box's availability bit
// recomputed from port state or read from a phase-1 snapshot, and a
// recursive depth-first search. It works on copies of the network's
// state and lane generator, so the network is left untouched.
type refNet struct {
	o     *Omega
	wr    refWiring
	reach [][]uint64
	occ   [][]bool
	busy  []bool
	free  []int
	lanes rng.Source
}

func newRefNet(o *Omega) *refNet {
	r := &refNet{
		o:     o,
		wr:    newRefWiring(o),
		reach: refReach(o),
		occ:   make([][]bool, o.n),
		busy:  append([]bool(nil), o.portBusy...),
		free:  append([]int(nil), o.free...),
		lanes: *o.rnd,
	}
	for s := range r.occ {
		r.occ[s] = make([]bool, o.size)
		for w := range r.occ[s] {
			r.occ[s][w] = o.WireOccupied(s, w)
		}
	}
	return r
}

func (r *refNet) eligible(j int) bool { return !r.busy[j] && r.free[j] > 0 }

// elig recounts the eligibility register from the copy's port state.
func (r *refNet) elig() uint64 {
	var m uint64
	for j := range r.busy {
		if r.eligible(j) {
			m |= 1 << uint(j)
		}
	}
	return m
}

// snapshot is AcquireBatch's phase 1 as the network once stored it:
// every stage-output wire's availability bit, frozen.
func (r *refNet) snapshot() [][]bool {
	snap := make([][]bool, r.o.n)
	for s := range snap {
		snap[s] = make([]bool, r.o.size)
		for w := range snap[s] {
			snap[s][w] = r.reach[s][w]&r.elig() != 0
		}
	}
	return snap
}

// refRoute is what one acquire must return and add to the counters.
type refRoute struct {
	ok, resourceBlock bool
	port              int
	wires             []int // last stage first, as circuitWires unpacks them
	rejects, visits   int64
	byStage           []int64 // rejects by the stage whose box bounced the request
}

// tel is the telemetry delta of the route.
func (r refRoute) tel() core.Telemetry {
	t := core.Telemetry{Attempts: 1, Rejects: r.rejects, BoxVisits: r.visits}
	switch {
	case r.ok:
		t.Grants = 1
	case r.resourceBlock:
		t.Failures, t.ResourceBlock = 1, 1
	default:
		t.Failures, t.PathBlock = 1, 1
	}
	return t
}

// acquire routes a request from pid and claims its wires and port in
// the copy. With snap nil every box recomputes its availability bits
// from port state, as Acquire did before the eligibility register; with
// a snapshot the boxes read it, as AcquireBatch's phase 2 did, and only
// the last stage reads the live port state.
func (r *refNet) acquire(pid int, snap [][]bool) refRoute {
	o := r.o
	last := o.n - 1
	res := refRoute{byStage: make([]int64, o.n)}
	avail := func(s, w int) bool {
		if snap != nil {
			return snap[s][w]
		}
		return r.reach[s][w]&r.elig() != 0
	}
	some := false
	for w := 0; w < o.size; w++ {
		some = some || avail(last, w)
	}
	if !some {
		res.resourceBlock = true
		return res
	}
	var dfs func(s, pos int) (int, bool)
	dfs = func(s, pos int) (int, bool) {
		res.visits++
		outs := [2]int{pos, r.wr.pair(s, pos)}
		if outs[0] > outs[1] {
			outs[0], outs[1] = outs[1], outs[0]
		}
		first := 0
		if o.policy == LaneRandom {
			first = r.lanes.Intn(2)
		}
		for k := 0; k < 2; k++ {
			out := outs[first^k]
			if r.occ[s][out] || s == last && !r.eligible(out) || s < last && !avail(s, out) {
				continue
			}
			r.occ[s][out] = true
			if s == last {
				res.wires = append(res.wires, out)
				return out, true
			}
			if port, ok := dfs(s+1, r.wr.next(out)); ok {
				res.wires = append(res.wires, out)
				return port, true
			}
			r.occ[s][out] = false
			res.rejects++
			res.visits++
			res.byStage[s]++
			if !o.reroute {
				return 0, false
			}
		}
		return 0, false
	}
	res.port, res.ok = dfs(0, r.wr.next(pid))
	if res.ok {
		r.busy[res.port] = true
		r.free[res.port]--
	}
	return res
}

// sameOccupancy requires the network's occupancy registers to hold
// exactly the copy's occupied wires.
func (r *refNet) sameOccupancy(t testing.TB, step int) {
	t.Helper()
	for s := range r.occ {
		for w, occ := range r.occ[s] {
			if r.o.WireOccupied(s, w) != occ {
				t.Fatalf("step %d: stage %d wire %d occupied=%v, reference %v", step, s, w, !occ, occ)
			}
		}
	}
}
