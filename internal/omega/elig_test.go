package omega

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"rsin/internal/core"
	"rsin/internal/rng"
)

// recountElig rebuilds the eligibility register from port state: bit j
// is set iff port j has an idle bus and a free resource.
func recountElig(o *Omega) uint64 {
	var m uint64
	for j := 0; j < o.size; j++ {
		if !o.portBusy[j] && o.free[j] > 0 {
			m |= 1 << uint(j)
		}
	}
	return m
}

// refRoute is what Acquire(pid) must return and add to telemetry.
type refRoute struct {
	ok, resourceBlock bool
	port              int
	wires             []int // last stage first, as pathGrant stores them
	rejects, visits   int64
}

// refAcquire routes a request the way Acquire did before the
// eligibility register: every box recomputes its output's availability
// bit by scanning every port's state. It works on copies of the wire
// occupancy and the lane generator, so the network is left untouched.
func refAcquire(o *Omega, pid int) refRoute {
	var r refRoute
	if recountElig(o) == 0 {
		r.resourceBlock = true
		return r
	}
	occ := make([][]bool, o.n)
	for s := range occ {
		occ[s] = slices.Clone(o.outOcc[s])
	}
	lanes := *o.rnd
	var dfs func(s, pos int) (int, bool)
	dfs = func(s, pos int) (int, bool) {
		r.visits++
		outs := o.BoxOutputs(s, pos)
		first := 0
		if o.policy == LaneRandom {
			first = lanes.Intn(2)
		}
		for k := 0; k < 2; k++ {
			out := outs[first^k]
			if occ[s][out] || o.reach[s][out]&recountElig(o) == 0 {
				continue
			}
			occ[s][out] = true
			if s == o.n-1 {
				r.wires = append(r.wires, out)
				return out, true
			}
			if port, ok := dfs(s+1, o.next(s, out)); ok {
				r.wires = append(r.wires, out)
				return port, true
			}
			occ[s][out] = false
			r.rejects++
			r.visits++
			if !o.reroute {
				return 0, false
			}
		}
		return 0, false
	}
	r.port, r.ok = dfs(0, o.entry(pid))
	return r
}

func telDelta(after, before core.Telemetry) core.Telemetry {
	return core.Telemetry{
		Attempts:      after.Attempts - before.Attempts,
		Failures:      after.Failures - before.Failures,
		ResourceBlock: after.ResourceBlock - before.ResourceBlock,
		PathBlock:     after.PathBlock - before.PathBlock,
		Rejects:       after.Rejects - before.Rejects,
		BoxVisits:     after.BoxVisits - before.BoxVisits,
		Grants:        after.Grants - before.Grants,
	}
}

// walkShape is one network the register checker drives.
type walkShape struct {
	n, perPort int
	wiring     Wiring
	random     bool // LaneRandom instead of LaneUpperFirst
	typed      bool // substrate of a bound TypedOmega whose acquires join the mix
	noReroute  bool
}

// header encodes the shape as the three bytes decodeShape reads.
func (s walkShape) header() []byte {
	var flags byte
	for i, on := range []bool{s.wiring == CubeWiring, s.random, s.typed, s.noReroute} {
		if on {
			flags |= 1 << i
		}
	}
	return []byte{byte(bits.TrailingZeros(uint(s.n)) - 1), byte(s.perPort - 1), flags}
}

// decodeShape reads a shape from three bytes: N = 2..64, perPort = 1..2
// and the flags of header.
func decodeShape(b []byte) walkShape {
	s := walkShape{
		n:         2 << (b[0] % 6),
		perPort:   1 + int(b[1]%2),
		random:    b[2]&2 != 0,
		typed:     b[2]&4 != 0,
		noReroute: b[2]&8 != 0,
	}
	if b[2]&1 != 0 {
		s.wiring = CubeWiring
	}
	return s
}

func (s walkShape) String() string {
	return fmt.Sprintf("%s-%dx%d-r%d-random=%v-typed=%v-noReroute=%v",
		s.wiring, s.n, s.n, s.perPort, s.random, s.typed, s.noReroute)
}

// heldGrant is an outstanding grant and the network that issued it.
type heldGrant struct {
	g     core.Grant
	typed bool
}

// eligWalk drives one network through a sequence of operations and
// checks its eligibility register before each one.
type eligWalk struct {
	t            testing.TB
	o            *Omega
	bt           core.Network // bound TypedOmega over o; nil when untyped
	busy         []bool       // processors whose grant still holds its path
	held         []int        // untyped grants holding a resource, per port
	transmitting []heldGrant
	serving      []heldGrant
	okAcq, noAcq int // Acquire calls checked against refAcquire, by outcome
}

func newEligWalk(t testing.TB, s walkShape) *eligWalk {
	opts := []Option{WithWiring(s.wiring), WithSeed(uint64(s.n*8 + s.perPort))}
	if s.random {
		opts = append(opts, WithLanePolicy(LaneRandom))
	}
	if s.noReroute {
		opts = append(opts, WithoutReroute())
	}
	w := &eligWalk{t: t, busy: make([]bool, s.n), held: make([]int, s.n)}
	if s.typed {
		// One resource of each of perPort types behind every port, so the
		// substrate's per-port capacity is perPort.
		pool := make([]int, s.perPort)
		for k := range pool {
			pool[k] = 1
		}
		to := NewTyped(s.n, uniformPools(s.n, pool), opts...)
		typeOf := make([]int, s.n)
		for pid := range typeOf {
			typeOf[pid] = pid % s.perPort
		}
		w.o, w.bt = to.net, to.Bind(typeOf)
	} else {
		w.o = New(s.n, s.perPort, opts...)
	}
	return w
}

// The walk's operations; step takes op modulo walkOps.
const (
	opAcquire = iota
	opAcquireTag
	opAcquireBatch
	opReleasePath
	opReleaseResource
	opSetAvailability
	opAcquireTyped // opAcquire on an untyped network
	opReset
	walkOps
)

// check requires the register to equal a recount from port state.
func (w *eligWalk) check(step int) {
	if want := recountElig(w.o); w.o.elig != want {
		w.t.Fatalf("step %d: register %#x, recount %#x", step, w.o.elig, want)
	}
}

func (w *eligWalk) step(i, op, x, y int) {
	w.check(i)
	o, n := w.o, w.o.size
	switch op % walkOps {
	case opAcquireTyped:
		if w.bt == nil {
			w.acquire(i, x%n)
			return
		}
		if pid := x % n; !w.busy[pid] {
			if g, ok := w.bt.Acquire(pid); ok {
				w.hold(heldGrant{g: g, typed: true})
			}
		}
	case opAcquire:
		w.acquire(i, x%n)
	case opAcquireTag:
		if pid := x % n; !w.busy[pid] {
			if g, ok := o.AcquireTag(pid, y%n); ok {
				w.hold(heldGrant{g: g})
			}
		}
	case opAcquireBatch:
		// Up to four idle processors, visited in an odd-stride order
		// (a permutation of 0..n-1 because n is a power of two).
		var pids []int
		for k := 0; k < n && len(pids) < 1+y%4; k++ {
			if pid := (x + k*(2*(y/4)+1)) % n; !w.busy[pid] {
				pids = append(pids, pid)
			}
		}
		before := o.Telemetry()
		grants, oks := o.AcquireBatch(pids)
		var rejects, granted int64
		for k, g := range grants {
			rejects += g.Rejects
			if oks[k] {
				granted++
				w.hold(heldGrant{g: g})
			}
		}
		if d := telDelta(o.Telemetry(), before); d.Rejects != rejects || d.Grants != granted || d.Attempts != int64(len(pids)) {
			w.t.Fatalf("step %d: batch of %v: grants carry %d rejects and %d grants, telemetry moved %+v", i, pids, rejects, granted, d)
		}
	case opReleasePath:
		if len(w.transmitting) > 0 {
			h := take(&w.transmitting, x)
			if h.typed {
				w.bt.ReleasePath(h.g)
			} else {
				o.ReleasePath(h.g)
			}
			w.busy[h.g.Processor] = false
			w.serving = append(w.serving, h)
		}
	case opReleaseResource:
		if len(w.serving) > 0 {
			h := take(&w.serving, x)
			if h.typed {
				w.bt.ReleaseResource(h.g)
			} else {
				o.ReleaseResource(h.g)
				w.held[h.g.Port]--
			}
		}
	case opSetAvailability:
		// Never raise a port's count above what its outstanding grants
		// leave room for; an idle port also takes out-of-range counts,
		// which the call clamps.
		j := x % n
		if w.held[j] == 0 {
			o.SetResourceAvailability(j, y%(o.perPort+3)-1)
		} else {
			o.SetResourceAvailability(j, y%(o.perPort-w.held[j]+1))
		}
	case opReset:
		// Typed grants hold resources of the typed pools, which Reset
		// does not see: return them first.
		for _, h := range append(w.transmitting, w.serving...) {
			if h.typed {
				w.bt.ReleaseResource(h.g)
			}
		}
		o.Reset()
		w.transmitting, w.serving = w.transmitting[:0], w.serving[:0]
		clear(w.busy)
		clear(w.held)
	}
}

// acquire runs Acquire(pid) beside refAcquire and requires the same
// port, wires, rejects and telemetry delta.
func (w *eligWalk) acquire(i, pid int) {
	if w.busy[pid] {
		return
	}
	o := w.o
	want := refAcquire(o, pid)
	exp := core.Telemetry{Attempts: 1, Rejects: want.rejects, BoxVisits: want.visits}
	switch {
	case want.ok:
		exp.Grants = 1
	case want.resourceBlock:
		exp.Failures, exp.ResourceBlock = 1, 1
	default:
		exp.Failures, exp.PathBlock = 1, 1
	}
	before := o.Telemetry()
	g, ok := o.Acquire(pid)
	if d := telDelta(o.Telemetry(), before); ok != want.ok || d != exp || g.Rejects != want.rejects {
		w.t.Fatalf("step %d: Acquire(%d) ok=%v rejects=%d telemetry %+v; reference ok=%v rejects=%d telemetry %+v",
			i, pid, ok, g.Rejects, d, want.ok, want.rejects, exp)
	}
	if !ok {
		if g != (core.Grant{Rejects: g.Rejects}) {
			w.t.Fatalf("step %d: failed Acquire(%d) returned %+v", i, pid, g)
		}
		w.noAcq++
		return
	}
	w.okAcq++
	if wires := g.Path.(*pathGrant).wires; g.Port != want.port || !slices.Equal(wires, want.wires) {
		w.t.Fatalf("step %d: Acquire(%d) took port %d over %v; reference port %d over %v",
			i, pid, g.Port, wires, want.port, want.wires)
	}
	w.hold(heldGrant{g: g})
}

func (w *eligWalk) hold(h heldGrant) {
	w.busy[h.g.Processor] = true
	if !h.typed {
		w.held[h.g.Port]++
	}
	w.transmitting = append(w.transmitting, h)
}

func take(hs *[]heldGrant, x int) heldGrant {
	k := x % len(*hs)
	h := (*hs)[k]
	(*hs)[k] = (*hs)[len(*hs)-1]
	*hs = (*hs)[:len(*hs)-1]
	return h
}

// walkShapes are the random walk's networks and the fuzz target's seed
// shapes: N = 2, 16 and 64 (64 fills the whole register), both wirings
// and one or two resources per port, each upper-first, with random
// lanes on a typed substrate, and without reroute.
func walkShapes() []walkShape {
	var shapes []walkShape
	for _, n := range []int{2, 16, 64} {
		for _, wiring := range []Wiring{OmegaWiring, CubeWiring} {
			for _, perPort := range []int{1, 2} {
				s := walkShape{n: n, perPort: perPort, wiring: wiring}
				shapes = append(shapes, s)
				s.random, s.typed = true, true
				shapes = append(shapes, s)
				s.random, s.typed, s.noReroute = false, false, true
				shapes = append(shapes, s)
			}
		}
	}
	return shapes
}

// walkOp draws an operation: acquires and releases dominate, so the
// network fills and drains; a reset comes about once in 500 steps.
func walkOp(src *rng.Source) int {
	if src.Intn(500) == 0 {
		return opReset
	}
	return src.Intn(opReset)
}

// TestEligRegisterRandomWalk churns each walk shape through a random
// operation mix, checking before every operation that the eligibility
// register equals a recount from port state and that every Acquire
// routes exactly as the per-box port scan did.
func TestEligRegisterRandomWalk(t *testing.T) {
	for k, s := range walkShapes() {
		t.Run(s.String(), func(t *testing.T) {
			src := rng.New(uint64(31 + k))
			w := newEligWalk(t, s)
			for i := 0; i < 4000; i++ {
				w.step(i, walkOp(src), src.Intn(256), src.Intn(256))
			}
			if w.okAcq == 0 || w.noAcq == 0 {
				t.Errorf("checked %d granted and %d failed Acquires: both outcomes must be exercised", w.okAcq, w.noAcq)
			}
		})
	}
}

// FuzzOmegaRouting decodes its input into a walk shape (three header
// bytes) and an operation sequence (three bytes per step: operation and
// two arguments), and runs the register checker over it. Steps past
// the 256th are ignored, which keeps each execution short enough for
// the fuzzer's minimizer.
func FuzzOmegaRouting(f *testing.F) {
	src := rng.New(11)
	for _, s := range walkShapes() {
		data := s.header()
		for i := 0; i < 64; i++ {
			data = append(data, byte(walkOp(src)), byte(src.Intn(256)), byte(src.Intn(256)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w := newEligWalk(t, decodeShape(data))
		for i := 3; i+2 < len(data) && i < 3+3*256; i += 3 {
			w.step(i/3, int(data[i]), int(data[i+1]), int(data[i+2]))
		}
		w.check(len(data) / 3)
	})
}
