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
	random     bool // a typed substrate's pools are drawn at random; untyped shapes ignore it
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
	okAcq, noAcq int // Acquire calls checked against the reference, by outcome
	batchOK      int // batch grants checked against the reference
}

func newEligWalk(t testing.TB, s walkShape) *eligWalk {
	opts := []Option{WithWiring(s.wiring)}
	if s.noReroute {
		opts = append(opts, WithoutReroute())
	}
	w := &eligWalk{t: t, busy: make([]bool, s.n), held: make([]int, s.n)}
	if s.typed {
		// perPort types behind every port, one resource of each. A random
		// shape draws each count from {0, 1} instead, so a type-t route
		// must find a port that carries type t at all.
		src := rng.New(uint64(s.n*8 + s.perPort))
		pools, total := make([][]int, s.n), 0
		for j := range pools {
			pools[j] = make([]int, s.perPort)
			for k := range pools[j] {
				pools[j][k] = 1
				if s.random {
					pools[j][k] = src.Intn(2)
				}
				total += pools[j][k]
			}
		}
		if total == 0 {
			pools[0][0] = 1
		}
		to := NewTyped(s.n, pools, opts...)
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
			// Typed routes count into the typed network's telemetry and
			// leave the substrate's counters alone.
			tel, byStage := o.Telemetry(), slices.Clone(o.rejectsByStage)
			g, ok := w.bt.Acquire(pid)
			if o.Telemetry() != tel || !slices.Equal(o.rejectsByStage, byStage) {
				w.t.Fatalf("step %d: typed Acquire(%d) moved the substrate's counters", i, pid)
			}
			if ok {
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
		w.batch(i, pids)
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

// acquire runs Acquire(pid) beside the reference router and requires
// the same port, wires, occupancy, rejects and counters.
func (w *eligWalk) acquire(i, pid int) {
	if w.busy[pid] {
		return
	}
	o := w.o
	ref := newRefNet(o)
	want := ref.acquire(pid, nil)
	before, byStage := o.Telemetry(), slices.Clone(o.rejectsByStage)
	g, ok := o.Acquire(pid)
	if d := telDelta(o.Telemetry(), before); ok != want.ok || d != want.tel() || g.Rejects != want.rejects {
		w.t.Fatalf("step %d: Acquire(%d) ok=%v rejects=%d telemetry %+v; reference ok=%v rejects=%d telemetry %+v",
			i, pid, ok, g.Rejects, d, want.ok, want.rejects, want.tel())
	}
	w.sameStageRejects(i, byStage, want.byStage)
	ref.sameOccupancy(w.t, i)
	if !ok {
		if g != (core.Grant{Rejects: g.Rejects}) {
			w.t.Fatalf("step %d: failed Acquire(%d) returned %+v", i, pid, g)
		}
		w.noAcq++
		return
	}
	w.okAcq++
	if wires := circuitWires(o, g.Port); g != (core.Grant{Processor: pid, Port: want.port, Rejects: g.Rejects}) || !slices.Equal(wires, want.wires) {
		w.t.Fatalf("step %d: Acquire(%d) returned %+v over %v; reference port %d over %v",
			i, pid, g, wires, want.port, want.wires)
	}
	w.hold(heldGrant{g: g})
}

// batch runs AcquireBatch(pids) beside the reference router reading a
// [stage][wire] snapshot of the availability bits, and requires the
// same grants, wires, occupancy, rejects and counters.
func (w *eligWalk) batch(i int, pids []int) {
	o := w.o
	ref := newRefNet(o)
	snap := ref.snapshot()
	want := make([]refRoute, len(pids))
	var wantTel core.Telemetry
	wantByStage := make([]int64, o.n)
	for k, pid := range pids {
		want[k] = ref.acquire(pid, snap)
		wantTel.Add(want[k].tel())
		for s, r := range want[k].byStage {
			wantByStage[s] += r
		}
	}
	before, byStage := o.Telemetry(), slices.Clone(o.rejectsByStage)
	grants, oks := o.AcquireBatch(pids)
	for k, g := range grants {
		wk := want[k]
		if oks[k] != wk.ok || g.Rejects != wk.rejects || oks[k] && (g.Port != wk.port || !slices.Equal(circuitWires(o, g.Port), wk.wires)) {
			w.t.Fatalf("step %d: batch of %v: request %d ok=%v port %d rejects %d; reference ok=%v port %d rejects %d",
				i, pids, k, oks[k], g.Port, g.Rejects, wk.ok, wk.port, wk.rejects)
		}
		if oks[k] {
			w.batchOK++
			w.hold(heldGrant{g: g})
		}
	}
	if d := telDelta(o.Telemetry(), before); d != wantTel {
		w.t.Fatalf("step %d: batch of %v: telemetry moved %+v, reference %+v", i, pids, d, wantTel)
	}
	w.sameStageRejects(i, byStage, wantByStage)
	ref.sameOccupancy(w.t, i)
}

// sameStageRejects requires rejectsByStage to have grown by want since
// before.
func (w *eligWalk) sameStageRejects(i int, before, want []int64) {
	for s, r := range w.o.rejectsByStage {
		if r-before[s] != want[s] {
			w.t.Fatalf("step %d: stage %d rejects grew by %d, reference %d", i, s, r-before[s], want[s])
		}
	}
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
// and one or two resources per port, each plain, as a typed substrate
// with random pools, and without reroute.
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
// register equals a recount from port state, that every Acquire routes
// exactly as the per-box port scan did, and that every AcquireBatch
// routes exactly as against a [stage][wire] snapshot of the
// availability bits.
func TestEligRegisterRandomWalk(t *testing.T) {
	for k, s := range walkShapes() {
		t.Run(s.String(), func(t *testing.T) {
			src := rng.New(uint64(31 + k))
			w := newEligWalk(t, s)
			for i := 0; i < 4000; i++ {
				w.step(i, walkOp(src), src.Intn(256), src.Intn(256))
			}
			if w.okAcq == 0 || w.noAcq == 0 || w.batchOK == 0 {
				t.Errorf("checked %d granted and %d failed Acquires and %d batch grants: each must be exercised", w.okAcq, w.noAcq, w.batchOK)
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
