// Per-request latency attribution: the AttrRecorder probe folds the
// engine's KindComplete events — each carrying the exact phase
// decomposition of one finished request — into per-phase log2
// histograms and a deterministic top-K table of the slowest requests,
// and the Attribution document is the byte-stable JSON report built
// from them (schema rsin-attr/1).

package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"rsin/internal/stats"
)

// AttrSchema identifies one attribution report; AttrSetSchema wraps a
// list of them (one per replication, in replication order). Bump on any
// incompatible change.
const (
	AttrSchema    = "rsin-attr/1"
	AttrSetSchema = "rsin-attr-set/1"
)

// AttrRecorder is a Probe that consumes KindComplete events. Only
// measured requests (Aux = 1, the ones that contributed to
// Result.Response) enter the phase histograms and the slowest table;
// warmup completions are counted but not attributed, so the report
// describes exactly the measurement window.
//
// Like every simulated-time recorder it is single-threaded per run and
// derives nothing from the wall clock, so its report is byte-identical
// for any worker count.
type AttrRecorder struct {
	wait, block, tx, svc, resp *stats.Log2Histogram

	completed int64 // all completions, warmup included
	measured  int64 // completions inside the measurement window

	top []SlowRequest // sorted: resp descending, then req ascending
}

// Phase histograms cover [2^-20, 2^12): sub-microsecond spans of a
// μn=1 system down to the underflow bucket (exact zeros), and anything
// beyond ~4096 time units into overflow.
const (
	histMinExp = -20
	histMaxExp = 12
)

// NewAttrRecorder returns a recorder keeping the k slowest measured
// requests (k ≤ 0 keeps none). The top-K buffer is allocated up front,
// so Event never touches the heap.
func NewAttrRecorder(k int) *AttrRecorder {
	if k < 0 {
		k = 0
	}
	return &AttrRecorder{
		wait:  stats.NewLog2Histogram(histMinExp, histMaxExp),
		block: stats.NewLog2Histogram(histMinExp, histMaxExp),
		tx:    stats.NewLog2Histogram(histMinExp, histMaxExp),
		svc:   stats.NewLog2Histogram(histMinExp, histMaxExp),
		resp:  stats.NewLog2Histogram(histMinExp, histMaxExp),
		top:   make([]SlowRequest, 0, k),
	}
}

// Kinds declares the one kind the recorder reads.
func (a *AttrRecorder) Kinds() KindSet { return KindSetOf(KindComplete) }

// Event implements Probe.
//
//lint:hotpath
func (a *AttrRecorder) Event(e Event) {
	if e.Kind != KindComplete {
		return
	}
	a.completed++
	if e.Aux == 0 {
		return
	}
	a.measured++
	a.wait.Add(e.Wait)
	a.block.Add(e.Block)
	a.tx.Add(e.Tx)
	a.svc.Add(e.Svc)
	a.resp.Add(e.Dur)
	// Once the table is full, a request faster than its fastest entry
	// cannot enter: skip building its row.
	if n := len(a.top); n == cap(a.top) && (n == 0 || e.Dur < a.top[n-1].Resp) {
		return
	}
	a.noteSlow(SlowRequest{
		Req: e.Req, Pid: e.Pid, Port: e.Port, Resp: e.Dur,
		Wait: e.Wait, Block: e.Block, Tx: e.Tx, Svc: e.Svc,
	})
}

// slowerThan reports whether x ranks before y in the slowest table:
// larger response first, ties broken by shard (ascending — zero for
// every entry of a single-run table, so the pre-shard ordering is
// unchanged) and then by arrival order (smaller request id first).
// (Shard, Req) identifies a request uniquely even in a merged table, so
// the ranking is a total order and the table is deterministic.
func slowerThan(x, y SlowRequest) bool {
	if x.Resp != y.Resp {
		return x.Resp > y.Resp
	}
	if x.Shard != y.Shard {
		return x.Shard < y.Shard
	}
	return x.Req < y.Req
}

// noteSlow inserts s into the sorted fixed-capacity top table,
// evicting the current fastest entry when full. Insertion shifts in
// place — no allocation.
//
//lint:hotpath
func (a *AttrRecorder) noteSlow(s SlowRequest) {
	n := len(a.top)
	if n == cap(a.top) {
		if n == 0 || !slowerThan(s, a.top[n-1]) {
			return
		}
		n-- // overwrite the current fastest
	} else {
		a.top = a.top[:n+1]
	}
	i := n
	for ; i > 0 && slowerThan(s, a.top[i-1]); i-- {
		a.top[i] = a.top[i-1]
	}
	a.top[i] = s
}

// Report freezes the recorder into its JSON document. label names the
// run (configuration, replication) and blocking carries the network's
// fine-grained blocking counters (bus-busy, resource-busy, Omega stage
// conflicts) in the caller's order — the engine's Result telemetry
// already reports them deterministically.
func (a *AttrRecorder) Report(label string, blocking []BlockRow) Attribution {
	att := Attribution{
		Schema:    AttrSchema,
		Label:     label,
		Completed: a.completed,
		Measured:  a.measured,
		Phases: []HistSnap{
			histSnapOf("wait", a.wait),
			histSnapOf("block", a.block),
			histSnapOf("tx", a.tx),
			histSnapOf("svc", a.svc),
			histSnapOf("resp", a.resp),
		},
		Slowest:  append([]SlowRequest(nil), a.top...),
		Blocking: blocking,
	}
	return att
}

// Attribution is one run's latency-attribution report (AttrSchema).
// Phases always holds exactly the five phase histograms wait, block,
// tx, svc, resp, in that order; wait+block+tx+svc of a request sums to
// its resp bit for bit, so the phase Sum fields reconcile the same way.
type Attribution struct {
	Schema    string        `json:"schema"`
	Label     string        `json:"label,omitempty"`
	Completed int64         `json:"completed"`
	Measured  int64         `json:"measured"`
	Phases    []HistSnap    `json:"phases"`
	Slowest   []SlowRequest `json:"slowest,omitempty"`
	Blocking  []BlockRow    `json:"blocking,omitempty"`
}

// Phase returns the named phase histogram snapshot, or an empty snap
// when absent (a malformed document).
func (a Attribution) Phase(name string) HistSnap {
	for _, p := range a.Phases {
		if p.Name == name {
			return p
		}
	}
	return HistSnap{Name: name}
}

// HistSnap is one phase histogram of an Attribution. Buckets with zero
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

// histSnapOf freezes one histogram into its report entry.
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

// SlowRequest is one entry of the slowest-requests table: the request's
// identity and its full phase decomposition. Shard is the originating
// shard of a merged report (internal/shard); single-run reports leave
// it zero and omit it from JSON, so pre-shard documents are unchanged.
type SlowRequest struct {
	Req   int64   `json:"req"`
	Pid   int     `json:"pid"`
	Port  int     `json:"port"`
	Shard int     `json:"shard,omitempty"`
	Resp  float64 `json:"resp"`
	Wait  float64 `json:"wait"`
	Block float64 `json:"block"`
	Tx    float64 `json:"tx"`
	Svc   float64 `json:"svc"`
}

// BlockRow is one named blocking counter (from the network's detail
// counters and telemetry).
type BlockRow struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// attrSet is the on-disk wrapper around per-replication reports.
type attrSet struct {
	Schema string        `json:"schema"`
	Runs   []Attribution `json:"runs"`
}

// WriteAttributions writes several runs' reports (one per replication,
// in replication order) as a single indented JSON document plus a
// trailing newline. encoding/json is deterministic for identical
// values, so equal reports produce equal bytes.
func WriteAttributions(w io.Writer, atts []Attribution) error {
	data, err := json.MarshalIndent(attrSet{Schema: AttrSetSchema, Runs: atts}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadAttributions parses a document written by WriteAttributions,
// rejecting unknown schemas.
func ReadAttributions(r io.Reader) ([]Attribution, error) {
	var doc attrSet
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: parsing attribution set: %w", err)
	}
	if doc.Schema != AttrSetSchema {
		return nil, fmt.Errorf("obs: attribution set schema %q, want %q", doc.Schema, AttrSetSchema)
	}
	for i, att := range doc.Runs {
		if att.Schema != AttrSchema {
			return nil, fmt.Errorf("obs: attribution run %d schema %q, want %q", i, att.Schema, AttrSchema)
		}
	}
	return doc.Runs, nil
}
