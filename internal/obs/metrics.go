// Simulated-time metrics: a registry of counters, time-weighted gauges
// and fixed-log2-bucket histograms, plus the Recorder probe that feeds
// one from the engine's lifecycle events, and the metrics-snapshot JSON
// schema. Everything here is keyed by simulated time — never the wall
// clock — so snapshots are byte-identical for any worker count.

package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"rsin/internal/stats"
)

// SnapshotSchema identifies the metrics-snapshot JSON layout; bump it
// on any incompatible change.
const SnapshotSchema = "rsin-metrics-snapshot/v1"

// ErrNonFiniteMetric is the sentinel wrapped by the panics Counter and
// Gauge raise on NaN/Inf updates or on decrementing a monotone
// counter. Feeding a metric garbage is a programming error in the
// instrumentation site, so the accumulators panic rather than silently
// corrupting every later reading — but with an error value wrapping
// this sentinel so recovery code can classify it with errors.Is, the
// same pattern as stats.ErrTimeBackwards.
var ErrNonFiniteMetric = errors.New("obs: invalid metric update")

// Counter is a monotone event count: it only ever moves up. Add panics
// on negative n so a signed delta can never silently break the
// monotonicity that rate computations and snapshot diffing rely on; a
// state variable that both rises and falls is a Gauge.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n. n must be non-negative; Add panics (wrapping
// ErrNonFiniteMetric) on a negative delta.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Errorf("%w: Counter.Add(%d) would decrement a monotone counter", ErrNonFiniteMetric, n))
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a piecewise-constant state variable tracked as a
// time-weighted average over simulated time (queue length, busy
// resources, per-bus occupancy).
//
// The zero value is ready to use. The first Set opens the averaging
// window, so a gauge first touched at time t carries no weight for
// [0, t) — PreparePorts-style priming (Set(0, 0)) is how a caller
// includes the idle prefix.
type Gauge struct {
	tw   stats.TimeWeighted
	last float64
}

// Set records value v at simulated time t. Times must be
// non-decreasing and v finite; Set panics (wrapping ErrNonFiniteMetric)
// on NaN or ±Inf, which would silently corrupt the time-weighted mean.
func (g *Gauge) Set(t, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Errorf("%w: Gauge.Set(%g, %g)", ErrNonFiniteMetric, t, v))
	}
	g.tw.Set(t, v)
	g.last = v
}

// meanAt closes a copy of the window at time t, leaving the live
// accumulator untouched (snapshots must not perturb the run).
func (g *Gauge) meanAt(t float64) float64 {
	tw := g.tw
	return tw.Finish(t)
}

// Registry holds one simulation's named metrics. It is not safe for
// concurrent use: like the engine that feeds it, it is single-threaded
// per run, and parallel replications each own a registry.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*stats.Log2Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*stats.Log2Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Log2Histogram returns the named histogram, creating it with the given
// bucket layout on first use (later calls keep the original layout).
func (r *Registry) Log2Histogram(name string, minExp, maxExp int) *stats.Log2Histogram {
	h := r.hists[name]
	if h == nil {
		h = stats.NewLog2Histogram(minExp, maxExp)
		r.hists[name] = h
	}
	return h
}

// Snapshot freezes the registry at simulated time simTime into the
// JSON-ready form. Entries are sorted by name, so equal registries
// serialize to equal bytes.
func (r *Registry) Snapshot(simTime float64) Snapshot {
	s := Snapshot{Schema: SnapshotSchema, SimTime: simTime}
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: r.counters[name].v})
	}
	for _, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		s.Gauges = append(s.Gauges, GaugeSnap{
			Name: name, Mean: g.meanAt(simTime), Last: g.last,
		})
	}
	for _, name := range sortedKeys(r.hists) {
		s.Histograms = append(s.Histograms, histSnapOf(name, r.hists[name]))
	}
	return s
}

// histSnapOf freezes one histogram into its snapshot entry (shared by
// Registry.Snapshot and the attribution report).
func histSnapOf(name string, h *stats.Log2Histogram) HistSnap {
	hs := HistSnap{
		Name: name, Count: h.N(), Sum: h.Sum(), Mean: h.Mean(),
		Under: h.Under(), Over: h.Over(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	for i := 0; i < h.NumBuckets(); i++ {
		if c := h.Bucket(i); c > 0 {
			lo, hi := h.BucketBounds(i)
			hs.Buckets = append(hs.Buckets, BucketSnap{Lo: lo, Hi: hi, Count: c})
		}
	}
	return hs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot is the metrics-snapshot JSON document (SnapshotSchema).
type Snapshot struct {
	Schema     string        `json:"schema"`
	SimTime    float64       `json:"sim_time"`
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
}

// CounterSnap is one counter entry of a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge entry of a Snapshot: the time-weighted mean
// over the run plus the final value.
type GaugeSnap struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	Last float64 `json:"last"`
}

// HistSnap is one histogram entry of a Snapshot. Buckets with zero
// count are omitted; Under/Over hold the out-of-range tails.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Mean    float64      `json:"mean"`
	Under   int64        `json:"under"`
	Over    int64        `json:"over"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one populated histogram bucket [Lo, Hi).
type BucketSnap struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int64   `json:"count"`
}

// WriteSnapshots writes several runs' snapshots (e.g. one per
// replication, in replication order) as a single JSON document.
func WriteSnapshots(w io.Writer, snaps []Snapshot) error {
	doc := struct {
		Schema string     `json:"schema"`
		Runs   []Snapshot `json:"runs"`
	}{Schema: "rsin-metrics-snapshots/v1", Runs: snaps}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Recorder is a Probe that folds lifecycle events into a Registry:
// counters for every event kind, time-weighted gauges for queue length,
// busy ports and per-port occupancy, and log2 delay histograms for the
// queue wait and the service span.
type Recorder struct {
	reg *Registry

	arrivals, enqueues, grants  *Counter
	txEnds, releases            *Counter
	rejects, rejected, reroutes *Counter

	queueLen *Gauge
	busy     *Gauge
	portBusy map[int]*Gauge

	wait *stats.Log2Histogram
	svc  *stats.Log2Histogram

	queued, inflight float64
}

// Delay histograms cover [2^-20, 2^12): sub-microsecond waits of a
// μn=1 system down to the underflow bucket (exact zeros), and anything
// beyond ~4096 time units into overflow.
const (
	histMinExp = -20
	histMaxExp = 12
)

// NewRecorder returns a Recorder feeding reg.
func NewRecorder(reg *Registry) *Recorder {
	return &Recorder{
		reg:      reg,
		arrivals: reg.Counter("sim.arrivals"),
		enqueues: reg.Counter("sim.enqueued"),
		grants:   reg.Counter("sim.grants"),
		txEnds:   reg.Counter("sim.transmit_done"),
		releases: reg.Counter("sim.released"),
		rejects:  reg.Counter("sim.rejects"),
		rejected: reg.Counter("sim.rejected_attempts"),
		reroutes: reg.Counter("sim.reroutes"),
		queueLen: reg.Gauge("sim.queue_len"),
		busy:     reg.Gauge("sim.busy_ports"),
		portBusy: map[int]*Gauge{},
		wait:     reg.Log2Histogram("sim.wait", histMinExp, histMaxExp),
		svc:      reg.Log2Histogram("sim.service", histMinExp, histMaxExp),
	}
}

// PreparePorts pre-registers the occupancy gauges of ports 0..n-1 at
// value 0 from time 0, so ports that never receive a grant still appear
// in the snapshot with zero utilization.
func (r *Recorder) PreparePorts(n int) {
	for j := 0; j < n; j++ {
		r.port(j).Set(0, 0)
	}
}

// port returns the occupancy gauge of output port j.
func (r *Recorder) port(j int) *Gauge {
	g := r.portBusy[j]
	if g == nil {
		g = r.reg.Gauge(fmt.Sprintf("sim.port_busy.%03d", j))
		r.portBusy[j] = g
	}
	return g
}

// Event implements Probe.
func (r *Recorder) Event(e Event) {
	switch e.Kind {
	case KindArrival:
		r.arrivals.Inc()
		r.queued++
		r.queueLen.Set(e.T, r.queued)
	case KindEnqueue:
		r.enqueues.Inc()
	case KindGrant:
		r.grants.Inc()
		if e.Aux > 0 {
			r.reroutes.Inc()
			r.rejects.Add(e.Aux)
		}
	case KindTransmitStart:
		r.queued--
		r.queueLen.Set(e.T, r.queued)
		r.inflight++
		r.busy.Set(e.T, r.inflight)
		if e.Port >= 0 {
			r.port(e.Port).Set(e.T, 1)
		}
		r.wait.Add(e.Dur)
	case KindTransmitEnd:
		r.txEnds.Inc()
		r.inflight--
		r.busy.Set(e.T, r.inflight)
		if e.Port >= 0 {
			r.port(e.Port).Set(e.T, 0)
		}
	case KindRelease:
		r.releases.Inc()
		r.svc.Add(e.Dur)
	case KindReject:
		r.rejected.Inc()
		r.rejects.Add(e.Aux)
	case KindReroute:
		r.reroutes.Inc()
	}
}
