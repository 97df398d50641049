// Chrome trace_event export: the Trace probe turns the engine's
// lifecycle events into trace_event records on simulated time, and
// WriteTraceJSON serializes any record list (simulated-time sim traces
// or wall-clock runner telemetry) into the JSON Object Format that
// chrome://tracing and Perfetto open directly.
//
// One simulated time unit maps to one trace microsecond (the format's
// native ts/dur unit), so a μn=1 system shows transmissions of ~1µs.
// Serialization is hand-rolled with strconv so identical event lists
// produce identical bytes — the engine's determinism contract extended
// to the trace file.

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// TraceEvent is one trace_event record. Ph selects the phase: 'X'
// (complete slice, Ts+Dur), 'I' (instant), 'C' (counter), 'M'
// (metadata). Pid and Tid place the record on a process/thread track.
type TraceEvent struct {
	Name string
	Cat  string
	Ph   byte
	Ts   float64
	Dur  float64 // 'X' only
	Pid  int
	Tid  int
	Args []Arg
}

// Arg is one key/value entry of a trace event's args object. Val must
// be an int, int64, float64 or string.
type Arg struct {
	Key string
	Val any
}

// appendJSON serializes the event as a single JSON object.
func (e TraceEvent) appendJSON(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, e.Cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, e.Ts)
	if e.Ph == 'X' {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, e.Dur)
	}
	if e.Ph == 'I' {
		b = append(b, `,"s":"t"`...) // thread-scoped instant
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			switch v := a.Val.(type) {
			case int:
				b = strconv.AppendInt(b, int64(v), 10)
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case float64:
				b = appendFloat(b, v)
			case string:
				b = strconv.AppendQuote(b, v)
			default:
				b = strconv.AppendQuote(b, fmt.Sprint(v))
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	return b
}

// appendFloat formats a float as a JSON number with the shortest
// round-trip representation — deterministic for identical bits.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteTraceJSON writes the events as a Chrome trace_event JSON
// document (JSON Object Format), one event per line in slice order.
func WriteTraceJSON(w io.Writer, events []TraceEvent) error {
	b := make([]byte, 0, 1<<16)
	b = append(b, `{"displayTimeUnit":"ms","traceEvents":[`...)
	b = append(b, '\n')
	for i, e := range events {
		b = e.appendJSON(b)
		if i < len(events)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		if len(b) >= 1<<16 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// portTidBase is the track id of output port 0 while a run's processor
// ids stay below it. WriteTraces raises the base to the first power of
// ten above the largest processor id, so processor and port tracks
// never collide at any processor count.
const portTidBase = 1000

// Trace is a Probe that records a simulation's lifecycle as trace
// slices: per-processor tracks carry the queue-wait and transmission
// slices plus reject/reroute instants; per-port tracks carry the
// service slices; counter tracks plot the total queue length and busy
// ports over simulated time. A recorded event's Tid is its processor
// id, or its port id when it sits on a port track (see onPortTrack);
// WriteTraces lays the port tracks out above the processor tracks.
type Trace struct {
	events  []TraceEvent
	txStart map[int]float64 // per-processor transmit-start time
	queued  int
	busy    int
}

// NewTrace returns an empty trace recorder.
func NewTrace() *Trace {
	return &Trace{txStart: map[int]float64{}}
}

// Kinds declares the kinds the trace records.
func (t *Trace) Kinds() KindSet {
	return KindSetOf(KindArrival, KindGrant, KindTransmitStart, KindTransmitEnd, KindRelease, KindReject)
}

// Event implements Probe.
func (t *Trace) Event(e Event) {
	switch e.Kind {
	case KindArrival:
		t.queued++
		t.counter(e.T, "queue length", t.queued)
	case KindGrant:
		if e.Aux > 0 {
			t.events = append(t.events, TraceEvent{
				Name: "reroute", Cat: "net", Ph: 'I', Ts: e.T, Tid: e.Pid,
				Args: []Arg{{"rejects", e.Aux}, {"port", e.Port}},
			})
		}
	case KindTransmitStart:
		t.queued--
		t.counter(e.T, "queue length", t.queued)
		t.busy++
		t.counter(e.T, "busy ports", t.busy)
		t.events = append(t.events, TraceEvent{
			Name: "wait", Cat: "task", Ph: 'X', Ts: e.T - e.Dur, Dur: e.Dur, Tid: e.Pid,
			Args: []Arg{{"port", e.Port}},
		})
		t.txStart[e.Pid] = e.T
	case KindTransmitEnd:
		t.busy--
		t.counter(e.T, "busy ports", t.busy)
		start := t.txStart[e.Pid]
		t.events = append(t.events, TraceEvent{
			Name: "tx", Cat: "task", Ph: 'X', Ts: start, Dur: e.T - start, Tid: e.Pid,
			Args: []Arg{{"port", e.Port}},
		})
	case KindRelease:
		t.events = append(t.events, TraceEvent{
			Name: "svc", Cat: "task", Ph: 'X', Ts: e.T - e.Dur, Dur: e.Dur, Tid: e.Port,
			Args: []Arg{{"proc", e.Pid}},
		})
	case KindReject:
		t.events = append(t.events, TraceEvent{
			Name: "reject", Cat: "net", Ph: 'I', Ts: e.T, Tid: e.Pid,
			Args: []Arg{{"rejects", e.Aux}},
		})
	}
}

// onPortTrack reports whether a recorded event sits on a port track:
// service slices do, every other record sits on a processor track or,
// for counters, on track 0.
func onPortTrack(e TraceEvent) bool { return e.Name == "svc" }

// counter appends a counter sample.
func (t *Trace) counter(ts float64, name string, v int) {
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: "state", Ph: 'C', Ts: ts, Args: []Arg{{"n", v}},
	})
}

// Len returns the number of recorded trace events.
func (t *Trace) Len() int { return len(t.events) }

// Events returns the recorded events (no metadata; use WriteTraces for
// a complete document).
func (t *Trace) Events() []TraceEvent { return t.events }

// WriteTraces writes one or more recorded traces (e.g. one per
// replication, in replication order) as a single Chrome trace JSON
// document. Trace i becomes process i, with naming metadata for the
// process and every processor/port track it used. Port j's track id is
// base+j, where base is portTidBase, or the first power of ten above
// the run's processor ids when it has that many processors.
func WriteTraces(w io.Writer, traces ...*Trace) error {
	var all []TraceEvent
	for i, t := range traces {
		all = append(all, TraceEvent{
			Name: "process_name", Ph: 'M', Pid: i,
			Args: []Arg{{"name", fmt.Sprintf("sim run %d", i)}},
		})
		procs, ports := map[int]bool{}, map[int]bool{}
		for _, e := range t.events {
			if onPortTrack(e) {
				ports[e.Tid] = true
			} else {
				procs[e.Tid] = true
			}
		}
		base := portTidBase
		for pid := range procs {
			for pid >= base {
				base *= 10
			}
		}
		for _, pid := range sortedIDs(procs) {
			all = append(all, TraceEvent{
				Name: "thread_name", Ph: 'M', Pid: i, Tid: pid,
				Args: []Arg{{"name", fmt.Sprintf("proc %d", pid)}},
			})
		}
		for _, port := range sortedIDs(ports) {
			all = append(all, TraceEvent{
				Name: "thread_name", Ph: 'M', Pid: i, Tid: base + port,
				Args: []Arg{{"name", fmt.Sprintf("port %d", port)}},
			})
		}
		for _, e := range t.events {
			e.Pid = i
			if onPortTrack(e) {
				e.Tid += base
			}
			all = append(all, e)
		}
	}
	return WriteTraceJSON(w, all)
}

// sortedIDs returns the set's members in ascending order.
func sortedIDs(set map[int]bool) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
