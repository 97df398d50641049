package sim

// event is one scheduled occurrence in the simulation, 24 bytes: the
// heap moves whole events on every level it sifts through, so the
// record shares one ref field between the two indexes an event can
// carry.
type event struct {
	time float64
	seq  uint64 // FIFO tie-breaker for deterministic ordering
	ref  int32  // pid (evArrival, evRetry) or grant-table index (evTxDone, evSvcDone)
	kind eventKind
}

type eventKind uint8

const (
	evArrival eventKind = iota
	evTxDone
	evSvcDone
	evRetry
)

// eventHeap is a binary min-heap ordered by (time, seq), the kernel's
// pending-event set at every p. A hand-rolled typed heap avoids the
// interface boxing of container/heap on the simulator's hottest path.
// Keys are unique (seq is), so the pop sequence is fully determined by
// the pushes. Both operations sift a hole instead of swapping, so each
// event moves once per level.
type eventHeap struct {
	items []event
}

//lint:hotpath
func (h *eventHeap) len() int { return len(h.items) }

//lint:hotpath
func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

//lint:hotpath
func (h *eventHeap) push(e event) {
	//lint:ignore hotalloc heap growth stops at the run's peak pending-event count; pinned by TestHotStructuresZeroAlloc
	h.items = append(h.items, e)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&e, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = e
}

// pop removes and returns the minimum event; the heap must be
// nonempty. It uses Floyd's bottom-up method: the hole left at the
// root walks down to a leaf along the smaller child (one comparison
// per level), and the displaced last event is sifted up from there.
// The last event almost always belongs near the bottom, so this takes
// about half the comparisons of sifting it down from the root.
//
//lint:hotpath
func (h *eventHeap) pop() event {
	items := h.items
	top := items[0]
	n := len(items) - 1
	last := items[n]
	items = items[:n]
	h.items = items
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && eventLess(&items[c+1], &items[c]) {
			c++
		}
		items[i] = items[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&last, &items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = last
	return top
}
