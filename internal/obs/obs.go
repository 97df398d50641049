// Package obs is the deterministic observability layer of the rsin
// stack. It has two strictly separated halves:
//
// Simulated-time instrumentation (this file, attr.go, series.go,
// trace.go, merge.go): the Probe interface receives per-request
// lifecycle events from the discrete-event engine, keyed exclusively by
// simulated time. The recorders built on it — the latency-attribution
// AttrRecorder, the sampled SeriesRecorder and the Chrome trace_event
// exporter — and their shard merges therefore inherit the engine's
// determinism contract: their output is byte-identical for any worker
// count and any scheduling order, because nothing in them ever
// consults the wall clock.
//
// Wall-clock telemetry (sink.go, walltime.go, profile.go): the
// serialized stderr Sink, the Stopwatch, and the pprof helpers used by
// the runner and the CLIs to report how long real execution took.
// These are the only sanctioned homes for wall-clock reads outside
// internal/runner; the noclock analyzer enforces that split.
//
// A probe may name the event kinds it reads (Kinds, KindsOf). The
// engine builds only the events of those kinds and Multi forwards each
// event only to the probes that read its kind; a probe that names
// nothing receives every event. A nil Probe reads no kind, so an
// unobserved simulation pays one predictable branch per emission site
// and nothing else.
package obs

import "fmt"

// Kind discriminates lifecycle events.
type Kind uint8

const (
	// KindArrival: a task arrived at a processor's queue.
	KindArrival Kind = iota
	// KindEnqueue: the arriving task joined its processor's queue,
	// emitted before the allocation attempt (so a same-instant grant
	// follows its enqueue in the stream); Aux is the queue length
	// including the task itself. Every arrival that survives the
	// saturation check emits one.
	KindEnqueue
	// KindGrant: the network allocated a resource; Port is the granted
	// output port and Aux the in-network rejects the routing search
	// suffered before succeeding (0 on a first-try grant, >0 when the
	// Omega network rerouted).
	KindGrant
	// KindTransmitStart: the head-of-queue task began transmission;
	// Dur is its queueing delay d (arrival → transmit start).
	KindTransmitStart
	// KindTransmitEnd: transmission finished and the network path was
	// released; the resource keeps serving.
	KindTransmitEnd
	// KindRelease: service finished and the resource was released;
	// Dur is the service span (transmit end → release).
	KindRelease
	// KindReject: a failed allocation attempt that traversed the
	// network and was rejected back (Aux = rejects during the attempt).
	// Pure status blocks — where the processor never entered the
	// network — emit nothing.
	KindReject
	// KindComplete: the request's full lifecycle closed (service done).
	// Emitted after KindRelease at the same instant, it carries the
	// exact latency attribution: Dur is the response time (arrival →
	// service completion) and Wait + Block + Tx + Svc is its phase
	// decomposition, fixed up by the engine so the left-to-right sum
	// ((Wait+Block)+Tx)+Svc reproduces Dur bit for bit, and Wait+Block
	// reproduces the request's queueing delay d bit for bit. Req is the
	// request id (arrival order, 0-based) and Aux is 1 when the request
	// lies inside the measurement window (it contributed to
	// Result.Response), 0 during warmup.
	KindComplete

	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindEnqueue:
		return "enqueue"
	case KindGrant:
		return "grant"
	case KindTransmitStart:
		return "transmit-start"
	case KindTransmitEnd:
		return "transmit-end"
	case KindRelease:
		return "release"
	case KindReject:
		return "reject"
	case KindComplete:
		return "complete"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one lifecycle occurrence, stamped with simulated time.
// Fields beyond T/Kind/Pid are kind-specific; Port is -1 when no port
// is involved, Req is -1 on events that predate request tracking (the
// engine stamps it on arrival/enqueue/transmit-start/complete events).
// The phase fields Wait/Block/Tx/Svc are populated on KindComplete
// only; see its documentation for the exact-sum contract.
type Event struct {
	T    float64 // simulated time
	Kind Kind
	Pid  int     // processor (or requester) index
	Port int     // output port, -1 when not applicable
	Req  int64   // request id (arrival order), -1 when not applicable
	Aux  int64   // kind-specific count (queue length, rejects, measured flag)
	Dur  float64 // kind-specific span (queue wait, service time, response)

	// KindComplete latency attribution (zero otherwise): time queued
	// behind the processor's earlier tasks, time blocked on the network
	// at the head of the queue, transmission span, and service span.
	Wait  float64
	Block float64
	Tx    float64
	Svc   float64
}

// KindSet is a set of event kinds, one bit per Kind.
type KindSet uint16

// AllKinds holds every kind the engine emits. Its constant expression
// stops compiling if the kinds outgrow KindSet's 16 bits.
const AllKinds KindSet = 1<<numKinds - 1

// KindSetOf returns the set holding exactly the given kinds.
func KindSetOf(kinds ...Kind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in s.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Probe consumes lifecycle events. Implementations must not block and
// must derive nothing from the wall clock; the engine calls them
// synchronously from its event loop.
//
// A probe that reads only some kinds says so with a method
//
//	Kinds() KindSet
//
// and then receives only events of those kinds from the engine and
// from Multi. It must ignore every other kind, since a caller may still
// hand it the full stream. A probe without the method receives every
// event.
type Probe interface {
	Event(Event)
}

// KindsOf returns the kinds p reads: none for a nil probe, the set p
// declares through its Kinds method, and AllKinds for a probe that
// declares nothing (Func among them).
func KindsOf(p Probe) KindSet {
	switch d := p.(type) {
	case nil:
		return 0
	case interface{ Kinds() KindSet }:
		return d.Kinds()
	default:
		return AllKinds
	}
}

// Func adapts a plain function to the Probe interface.
type Func func(Event)

// Event implements Probe.
//
//lint:ignore puredet adapter dispatch: the wrapped probe function comes from the certified construction site
func (f Func) Event(e Event) { f(e) }

// Multi fans each event out to every non-nil probe that reads its
// kind, in argument order, and declares the union of their kinds. It
// returns nil when no usable probe remains, preserving the engine's
// nil fast path, and the probe itself when only one remains.
func Multi(probes ...Probe) Probe {
	var kept multi
	for _, p := range probes {
		if p != nil {
			kept = append(kept, route{p, KindsOf(p)})
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0].p
	default:
		return kept
	}
}

type multi []route

// route is one child of a multi and the kinds it reads.
type route struct {
	p     Probe
	kinds KindSet
}

// Kinds declares the union of the children's kinds.
func (m multi) Kinds() KindSet {
	var s KindSet
	for _, r := range m {
		s |= r.kinds
	}
	return s
}

// Event implements Probe.
func (m multi) Event(e Event) {
	for i := range m {
		if r := &m[i]; r.kinds.Has(e.Kind) {
			r.p.Event(e)
		}
	}
}
