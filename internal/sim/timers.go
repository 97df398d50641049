package sim

import (
	"math"
	"math/bits"

	"rsin/internal/invariant"
)

type eventKind uint8

const (
	evArrival eventKind = iota
	evTxDone
	evSvcDone
)

// timerTree is the kernel's pending-event set: an indexed tournament
// (winner) tree over a fixed family of timer slots. Under the paper's
// workload model every pending event belongs to one entity that has at
// most one pending event at a time — a processor's next arrival, a
// grant's transmission or service completion — so each entity owns one
// leaf, and its handler re-arms or disarms that leaf instead of pushing
// and popping events. Slots [0, p) are the processors' arrivals and
// slot p+gi is grant-table index gi's.
//
// node[1] is the root and node[n+slot] is slot's leaf, n a power of
// two. Every node holds the least (time, seq) key of its subtree and
// that key's slot, so the next event is read off the root without a
// pop. An arm or disarm rewrites one leaf and replays its path to the
// root: one sibling comparison per level, and no branch depends on an
// event time. Keys are unique (seq is), so the root is exactly the
// minimum a heap over the armed slots would pop.
//
// A disarmed leaf holds the all-ones key, which every armed key beats:
// an armed time is ≥ +0, so its IEEE bits have the sign bit clear.
// Emptiness is the armed count, never a sentinel time, since a finite
// rate can still draw +Inf.
type timerTree struct {
	node  []timerNode
	time  []float64 // per slot: the armed time, bit-exact (a -0 stays -0)
	kind  []eventKind
	n     int // leaf count, a power of two
	armed int
}

// timerNode is one 24-byte tree node. t is the time's IEEE bits, which
// order like the values for times ≥ +0, s is the seq, and w the slot
// whose key this is. The key lives in the node rather than behind a
// slot index so a comparison reads only the two nodes it compares.
type timerNode struct {
	t, s, w uint64
}

// free is the key of a disarmed leaf.
const free = ^uint64(0)

// newTimerTree returns an empty tree with room for at least leaves
// slots.
func newTimerTree(leaves int) timerTree {
	n := 1
	for n < leaves {
		n <<= 1
	}
	q := timerTree{
		node: make([]timerNode, 2*n),
		time: make([]float64, n),
		kind: make([]eventKind, n),
		n:    n,
	}
	for i := range q.node {
		q.node[i] = timerNode{t: free, s: free}
	}
	for slot := 0; slot < n; slot++ {
		q.node[n+slot].w = uint64(slot)
	}
	return q
}

// minNode returns the node with the smaller (t, s) key, compared as one
// 128-bit number: the borrow out of a − b is 1 exactly when a < b, and
// its negation selects a's words without a branch.
//
//lint:hotpath
func minNode(a, b timerNode) timerNode {
	_, borrow := bits.Sub64(a.s, b.s, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	m := -borrow
	return timerNode{
		t: b.t ^ (a.t^b.t)&m,
		s: b.s ^ (a.s^b.s)&m,
		w: b.w ^ (a.w^b.w)&m,
	}
}

// next returns the slot of the least armed key; the tree must hold an
// armed slot.
//
//lint:hotpath
func (q *timerTree) next() int { return int(q.node[1].w) }

// armedAt reports whether slot, which must be inside the tree, holds a
// pending event.
//
//lint:hotpath
func (q *timerTree) armedAt(slot int) bool { return q.node[q.n+slot].t != free }

// arm sets slot's pending event to (t, seq, kind), replacing any event
// the slot held. t must be ≥ 0 or -0. A slot past the leaves doubles
// the tree until it fits.
//
//lint:hotpath
func (q *timerTree) arm(slot int, t float64, seq uint64, kind eventKind) {
	if slot >= q.n {
		//lint:ignore hotalloc tree growth stops at the run's peak concurrency; pinned by TestHotStructuresZeroAlloc
		q.grow(slot)
	}
	i := q.n + slot
	if q.node[i].t == free {
		q.armed++
	}
	q.time[slot] = t
	q.kind[slot] = kind
	// t+0 folds -0 into +0: the float comparison the keys replace
	// treated them as equal and fell through to seq.
	q.fix(i, timerNode{t: math.Float64bits(t + 0), s: seq, w: uint64(slot)})
}

// disarm cancels slot's pending event; the slot must be armed.
//
//lint:hotpath
func (q *timerTree) disarm(slot int) {
	q.armed--
	q.fix(q.n+slot, timerNode{t: free, s: free, w: uint64(slot)})
}

// fix stores leaf i and replays its path to the root.
//
//lint:hotpath
func (q *timerTree) fix(i int, cur timerNode) {
	node := q.node
	node[i] = cur
	for i > 1 {
		cur = minNode(cur, node[i^1])
		i >>= 1
		node[i] = cur
	}
}

// grow doubles the leaf count until slot fits and rebuilds the inner
// nodes bottom-up. The kernel starts with room for its usual grant
// concurrency, so a run grows only past that, and at most up to its
// peak — never to the network's resource count, which can be far
// larger than any run's concurrency.
func (q *timerTree) grow(slot int) {
	g := newTimerTree(slot + 1)
	copy(g.node[g.n:], q.node[q.n:])
	copy(g.time, q.time)
	copy(g.kind, q.kind)
	for i := g.n - 1; i >= 1; i-- {
		g.node[i] = minNode(g.node[2*i], g.node[2*i+1])
	}
	g.armed = q.armed
	*q = g
}

// check verifies the root and the armed count against a scan of the
// leaves: the invariant build runs it after every event.
func (q *timerTree) check() error {
	armed, best := 0, -1
	for slot := 0; slot < q.n; slot++ {
		l := q.node[q.n+slot]
		if l.t == free {
			continue
		}
		armed++
		if best < 0 || minNode(l, q.node[q.n+best]) == l {
			best = slot
		}
	}
	if armed != q.armed {
		return invariant.Errorf("sim", "timer tree counts %d armed slots, leaves hold %d", q.armed, armed)
	}
	if best >= 0 && q.node[1] != q.node[q.n+best] {
		return invariant.Errorf("sim", "timer tree root holds slot %d, least armed key is slot %d's", q.next(), best)
	}
	return nil
}
