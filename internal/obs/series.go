// Simulated-time series: the SeriesRecorder probe reconstructs the
// engine's aggregate state (total queued tasks, busy resources,
// blocked-waiter count) from lifecycle events and samples it on a
// fixed simulated-time grid t_k = k·dt into flat float slices — the
// byte-stable raw material for warmup diagnostics and the rsintrace
// time-series reports (schema rsin-series/1).

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// SeriesSchema identifies one run's time series; SeriesSetSchema wraps
// a list of them (one per replication, in replication order). Bump on
// any incompatible change.
const (
	SeriesSchema    = "rsin-series/1"
	SeriesSetSchema = "rsin-series-set/1"
)

// SeriesRecorder is a Probe sampling three piecewise-constant state
// variables on the grid t_k = float64(k)·dt:
//
//   - queue_len: total tasks waiting in processor queues,
//   - busy_ports: resources currently transmitting or in service,
//   - blocked_waiters: processors idle with a nonempty queue (the
//     engine's blocked-waiter predicate).
//
// A tick samples the state after every event at or before t_k has been
// applied: tick t_k is emitted the first time an event with T > t_k
// arrives (or at Finish), so same-instant event cascades never produce
// a torn sample. Ticks are derived as float64(k)·dt — never by
// accumulating t += dt — so the grid is bit-identical regardless of
// how many events fall between ticks.
//
// Like every simulated-time recorder it is single-threaded per run and
// consults nothing but event timestamps, so its output is
// byte-identical for any worker count.
type SeriesRecorder struct {
	dt   float64
	next int64 // index of the next unemitted tick

	// Aggregate state reconstructed from events.
	queued  float64 // total queued tasks
	busy    float64 // resources transmitting or in service
	blocked float64 // processors idle with a nonempty queue

	qlen []int32 // per-processor queue length
	tx   []bool  // per-processor transmitting flag

	queueLen       []float64
	busyPorts      []float64
	blockedWaiters []float64
}

// NewSeriesRecorder returns a recorder for p processors sampling every
// dt simulated time units. It panics (wrapping ErrNonFiniteMetric) on a
// non-positive or non-finite dt, which would make the grid degenerate.
func NewSeriesRecorder(p int, dt float64) *SeriesRecorder {
	if !(dt > 0) || math.IsInf(dt, 0) {
		panic(fmt.Errorf("%w: series grid step %g", ErrNonFiniteMetric, dt))
	}
	return &SeriesRecorder{
		dt:   dt,
		qlen: make([]int32, p),
		tx:   make([]bool, p),
	}
}

// Reserve pre-sizes the sample slices for n ticks, so a run whose
// length is known up front never reallocates while recording.
func (s *SeriesRecorder) Reserve(n int) {
	if n <= cap(s.queueLen) {
		return
	}
	grow := func(dst []float64) []float64 {
		out := make([]float64, len(dst), n)
		copy(out, dst)
		return out
	}
	s.queueLen = grow(s.queueLen)
	s.busyPorts = grow(s.busyPorts)
	s.blockedWaiters = grow(s.blockedWaiters)
}

// sample flushes every tick strictly before t.
//
//lint:hotpath
func (s *SeriesRecorder) sample(t float64) {
	for float64(s.next)*s.dt < t {
		//lint:ignore hotalloc sample-slice growth is amortized and Reserve pre-sizes it; pinned by TestSeriesRecorderZeroAlloc
		s.queueLen = append(s.queueLen, s.queued)
		//lint:ignore hotalloc sample-slice growth is amortized and Reserve pre-sizes it; pinned by TestSeriesRecorderZeroAlloc
		s.busyPorts = append(s.busyPorts, s.busy)
		//lint:ignore hotalloc sample-slice growth is amortized and Reserve pre-sizes it; pinned by TestSeriesRecorderZeroAlloc
		s.blockedWaiters = append(s.blockedWaiters, s.blocked)
		s.next++
	}
}

// Event implements Probe.
//
//lint:hotpath
func (s *SeriesRecorder) Event(e Event) {
	s.sample(e.T)
	switch e.Kind {
	case KindEnqueue:
		s.queued++
		s.qlen[e.Pid]++
		if !s.tx[e.Pid] && s.qlen[e.Pid] == 1 {
			s.blocked++
		}
	case KindTransmitStart:
		s.queued--
		s.qlen[e.Pid]--
		s.tx[e.Pid] = true
		s.busy++
		s.blocked-- // the head was by definition an eligible waiter
	case KindTransmitEnd:
		s.tx[e.Pid] = false
		if s.qlen[e.Pid] > 0 {
			s.blocked++
		}
	case KindRelease:
		s.busy--
	}
}

// Finish flushes every tick up to and including simTime (the run's
// final simulated instant) and returns the frozen series. label names
// the run (configuration, replication).
func (s *SeriesRecorder) Finish(label string, simTime float64) Series {
	s.sample(simTime)
	if float64(s.next)*s.dt == simTime {
		// The grid point at exactly simTime closes the run.
		s.sample(math.Nextafter(simTime, math.Inf(1)))
	}
	return Series{
		Schema:         SeriesSchema,
		Label:          label,
		Dt:             s.dt,
		QueueLen:       s.queueLen,
		BusyPorts:      s.busyPorts,
		BlockedWaiters: s.blockedWaiters,
	}
}

// Series is one run's sampled time series (SeriesSchema). The three
// slices share the grid: sample i was taken at simulated time i·Dt.
type Series struct {
	Schema         string    `json:"schema"`
	Label          string    `json:"label,omitempty"`
	Dt             float64   `json:"dt"`
	QueueLen       []float64 `json:"queue_len"`
	BusyPorts      []float64 `json:"busy_ports"`
	BlockedWaiters []float64 `json:"blocked_waiters"`
}

// Len returns the number of grid samples.
func (s Series) Len() int { return len(s.QueueLen) }

// seriesSet is the on-disk wrapper around per-replication series.
type seriesSet struct {
	Schema string   `json:"schema"`
	Runs   []Series `json:"runs"`
}

// WriteSeries writes several runs' series (one per replication, in
// replication order) as a single indented JSON document plus a
// trailing newline. encoding/json is deterministic for identical
// values, so equal series produce equal bytes.
func WriteSeries(w io.Writer, runs []Series) error {
	data, err := json.MarshalIndent(seriesSet{Schema: SeriesSetSchema, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSeries parses a document written by WriteSeries, rejecting
// unknown schemas.
func ReadSeries(r io.Reader) ([]Series, error) {
	var doc seriesSet
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parsing series set: %w", err)
	}
	if doc.Schema != SeriesSetSchema {
		return nil, fmt.Errorf("obs: series set schema %q, want %q", doc.Schema, SeriesSetSchema)
	}
	for i, run := range doc.Runs {
		if run.Schema != SeriesSchema {
			return nil, fmt.Errorf("obs: series run %d schema %q, want %q", i, run.Schema, SeriesSchema)
		}
	}
	return doc.Runs, nil
}
