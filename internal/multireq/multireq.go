// Package multireq explores the extension the paper explicitly defers
// (Sections I and VII): requests that need several resources at once.
// "Deadlocks may occur when multiple resources are requested by a
// request, and distributed resolution of deadlocks may have high
// overhead. A complete solution is beyond the scope of this paper."
//
// The package makes the deferred problem concrete on top of the
// multistage RSIN: a multi-resource request acquires its resources one
// at a time (the circuit is released after each acquisition, since a
// multi-resource task cannot start until it holds everything), under
// one of three disciplines:
//
//   - HoldAndWait: keep everything acquired so far and wait for the
//     rest — the naive discipline, which deadlocks under circular wait.
//   - OrderedAcquire: each request fixes its target ports up front (the
//     lowest-indexed ones) and acquires them in ascending order, waiting
//     on each in turn. Because every requester climbs the same total
//     order, circular wait is impossible — the classic argument — at
//     the cost of serializing contenders on the low ports, a concrete
//     instance of the "high overhead" the paper anticipates.
//   - ReleaseAndRetry: on any blockage release everything and retry —
//     deadlock-free but wasteful, illustrating the "high overhead" the
//     paper mentions.
//
// A deadlock detector identifies the stuck configuration among
// HoldAndWait requesters. The tests construct the minimal two-request
// circular wait and verify that the other disciplines resolve the same
// scenario.
package multireq

import (
	"fmt"
	"sort"

	"rsin/internal/core"
)

// Network is the substrate multireq needs: the RSIN operations plus
// targeted (address-mapped) acquisition and resource visibility, both
// provided by the multistage networks in internal/omega.
type Network interface {
	core.Network
	AcquireTag(pid, dst int) (core.Grant, bool)
	FreeResources(j int) int
}

// Discipline selects the multi-resource acquisition strategy.
type Discipline int

const (
	// HoldAndWait keeps partial allocations while waiting — may
	// deadlock.
	HoldAndWait Discipline = iota
	// OrderedAcquire acquires ports in increasing index order —
	// deadlock-free.
	OrderedAcquire
	// ReleaseAndRetry drops all partial allocations on any blockage.
	ReleaseAndRetry
)

// String returns the discipline name.
func (d Discipline) String() string {
	switch d {
	case HoldAndWait:
		return "hold-and-wait"
	case OrderedAcquire:
		return "ordered"
	case ReleaseAndRetry:
		return "release-and-retry"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Request is one multi-resource request in progress.
type Request struct {
	Processor int
	Need      int // resources required
	Held      []core.Grant
	Blocked   bool  // last Step made no progress
	targets   []int // OrderedAcquire: ports to visit, ascending
}

// Pool coordinates multi-resource requests over a shared network. It is
// deliberately untimed and sequential: the point is the deadlock
// structure of the paper's deferred problem, not performance.
type Pool struct {
	net    Network
	disc   Discipline
	reqs   map[int]*Request
	wasted int64 // grants released unfinished by ReleaseAndRetry
}

// NewPool returns a coordinator over net with the given discipline.
func NewPool(net Network, disc Discipline) *Pool {
	return &Pool{net: net, disc: disc, reqs: make(map[int]*Request)}
}

// Wasted returns the number of grants released and re-sought by the
// ReleaseAndRetry discipline — its overhead measure.
func (p *Pool) Wasted() int64 { return p.wasted }

// Submit registers a request by processor pid for need resources.
func (p *Pool) Submit(pid, need int) *Request {
	if need <= 0 {
		panic("multireq: need must be positive")
	}
	if _, dup := p.reqs[pid]; dup {
		panic(fmt.Sprintf("multireq: processor %d already has a request", pid))
	}
	r := &Request{Processor: pid, Need: need}
	if p.disc == OrderedAcquire {
		if need > p.net.Ports() {
			panic("multireq: ordered discipline needs one port per resource")
		}
		for j := 0; j < need; j++ {
			r.targets = append(r.targets, j)
		}
	}
	p.reqs[pid] = r
	return r
}

// Step advances one request by at most one acquisition and returns
// whether it made progress.
func (p *Pool) Step(pid int) bool {
	r := p.reqs[pid]
	if r == nil {
		panic(fmt.Sprintf("multireq: no request for processor %d", pid))
	}
	if len(r.Held) == r.Need {
		return false // already satisfied
	}
	switch p.disc {
	case OrderedAcquire:
		// Wait on the next predetermined target in ascending order.
		target := r.targets[len(r.Held)]
		if p.net.FreeResources(target) > 0 {
			if g, ok := p.net.AcquireTag(pid, target); ok {
				p.net.ReleasePath(g)
				r.Held = append(r.Held, g)
				r.Blocked = false
				return true
			}
		}
		r.Blocked = true
		return false
	default:
		g, ok := p.net.Acquire(pid)
		if ok {
			p.net.ReleasePath(g)
			r.Held = append(r.Held, g)
			r.Blocked = false
			return true
		}
		r.Blocked = true
		if p.disc == ReleaseAndRetry && len(r.Held) > 0 {
			for _, h := range r.Held {
				p.net.ReleaseResource(h)
				p.wasted++
			}
			r.Held = nil
		}
		return false
	}
}

// Complete releases every resource of a satisfied request.
func (p *Pool) Complete(pid int) {
	r := p.reqs[pid]
	if r == nil || len(r.Held) != r.Need {
		panic("multireq: Complete on unsatisfied request")
	}
	for _, g := range r.Held {
		p.net.ReleaseResource(g)
	}
	delete(p.reqs, pid)
}

// Satisfied reports whether pid's request holds everything it needs.
func (p *Pool) Satisfied(pid int) bool {
	r := p.reqs[pid]
	return r != nil && len(r.Held) == r.Need
}

// Outstanding returns the number of unfinished requests.
func (p *Pool) Outstanding() int { return len(p.reqs) }

// Deadlocked reports whether the pending requests are deadlocked: no
// request is satisfied, every request is blocked while holding a
// partial allocation (circular wait needs at least two holders), and a
// probe confirms that no pending request can acquire anything now.
func (p *Pool) Deadlocked() bool {
	if len(p.reqs) == 0 {
		return false
	}
	holders := 0
	for _, r := range p.reqs {
		if len(r.Held) == r.Need {
			return false // someone can complete and release
		}
		if !r.Blocked {
			return false // someone still has an untried move
		}
		if len(r.Held) > 0 {
			holders++
		}
	}
	if holders < 2 {
		return false
	}
	// Probe in sorted pid order: Acquire has network-policy side effects
	// (e.g. randomized port selection draws), so ranging over the map
	// directly would make the probe sequence depend on Go's map iteration
	// order and break run-to-run determinism.
	pids := make([]int, 0, len(p.reqs))
	for pid := range p.reqs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if g, ok := p.net.Acquire(pid); ok {
			p.net.ReleasePath(g)
			p.net.ReleaseResource(g)
			return false
		}
	}
	return true
}
