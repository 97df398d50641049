package sim

import (
	"math/bits"

	"rsin/internal/invariant"
)

// waiterSet is the incremental wake engine's registry of blocked
// processors: exactly those that are idle with a nonempty queue, i.e.
// whose most recent allocation attempt failed. It is a fixed-size
// bitset so the engine's release-time retry scan walks only the
// waiters (in index order, via next) instead of rescanning all p
// processors, while add/remove/contains stay O(1).
type waiterSet struct {
	words []uint64
	n     int // current member count
}

// newWaiterSet returns an empty set over processors [0, p).
func newWaiterSet(p int) *waiterSet {
	return &waiterSet{words: make([]uint64, (p+63)/64)}
}

// add inserts pid; inserting a member is a no-op.
//
//lint:hotpath
func (ws *waiterSet) add(pid int) {
	w, b := pid>>6, uint(pid&63)
	if ws.words[w]&(1<<b) == 0 {
		ws.words[w] |= 1 << b
		ws.n++
	}
}

// remove deletes pid; deleting a non-member is a no-op.
//
//lint:hotpath
func (ws *waiterSet) remove(pid int) {
	w, b := pid>>6, uint(pid&63)
	if ws.words[w]&(1<<b) != 0 {
		ws.words[w] &^= 1 << b
		ws.n--
	}
}

// contains reports membership of pid.
//
//lint:hotpath
func (ws *waiterSet) contains(pid int) bool {
	return ws.words[pid>>6]&(1<<uint(pid&63)) != 0
}

// empty reports whether the set has no members.
func (ws *waiterSet) empty() bool { return ws.n == 0 }

// next returns the smallest member in [from, hi), or -1 when none is.
// Iterating with `for pid := ws.next(lo, hi); pid != -1; pid =
// ws.next(pid+1, hi)` visits the range's members in ascending order and
// reads no word past the range; removing the currently visited member
// during iteration is safe (the scan never revisits positions below
// the cursor), which is the only mutation a wake pass performs — a
// grant removes the granted waiter and can never add one, since grants
// only consume network capacity.
//
//lint:hotpath
func (ws *waiterSet) next(from, hi int) int {
	from, hi = max(from, 0), min(hi, len(ws.words)<<6)
	if from >= hi {
		return -1
	}
	w, last := from>>6, (hi-1)>>6
	// Mask off bits below from within its word, then scan forward.
	word := ws.words[w] >> uint(from&63) << uint(from&63)
	for word == 0 {
		if w++; w > last {
			return -1
		}
		word = ws.words[w]
	}
	if pid := w<<6 + bits.TrailingZeros64(word); pid < hi {
		return pid
	}
	return -1
}

// blockedInvariant recounts the blocked predicate from the ground-truth
// processor state and pins the incremental waiter set to it: pid is a
// member iff it is idle with a nonempty queue. Run after every event
// under the invariant build (invariant.Enabled), it is the brute-force
// oracle the bitset bookkeeping must match.
func blockedInvariant(pt *procTable, ws *waiterSet) error {
	count := 0
	for pid := range pt.transmitting {
		blocked := pt.blocked(pid)
		if blocked {
			count++
		}
		if blocked != ws.contains(pid) {
			return invariant.Errorf("sim",
				"wake-list drift: processor %d blocked=%v but set membership=%v",
				pid, blocked, ws.contains(pid))
		}
	}
	if count != ws.n {
		return invariant.Errorf("sim",
			"wake-list count drift: %d processors blocked, set size %d", count, ws.n)
	}
	return nil
}
