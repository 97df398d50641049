// Deterministic shard merges for the observability recorders. A sharded
// run (internal/shard) gives every independent sub-network its own
// recorder; these functions fold the per-shard streams back into one
// document equivalent to a global recorder's view:
//
//   - AttrRecorder.Merge combines phase histograms and re-ranks the
//     slowest-requests tables with pid/port identities lifted into the
//     global namespace;
//   - MergeSeries sums the fixed-grid state series pointwise (the
//     sub-networks coexist, so their queue lengths add);
//   - MergeShardTraces interleaves trace streams on (simulated time,
//     shard index) — a stable k-way merge, so equal-time events keep
//     ascending shard order — while re-basing counter tracks from
//     per-shard running totals to global ones.
//
// Every merge folds shards in canonical ascending order. That order is
// part of the determinism contract: histogram sums and float
// comparisons are order-sensitive, so a fixed order is what makes the
// merged bytes independent of worker count and scheduling.

package obs

import (
	"fmt"
)

// Merge folds shard o's attribution into a. shard is o's index in the
// sharded run; pidOffset and portOffset lift o's local processor and
// port ids into the global namespace (sub-network s of a partitioned
// config owns pids [s·perSub, (s+1)·perSub)). Entries of o's slowest
// table compete for a's fixed capacity under the usual ranking, so
// merging every shard in ascending order into a fresh recorder yields
// the global top-K. Call only on quiescent recorders (after their runs
// finished).
func (a *AttrRecorder) Merge(o *AttrRecorder, shard, pidOffset, portOffset int) {
	a.wait.Merge(o.wait)
	a.block.Merge(o.block)
	a.tx.Merge(o.tx)
	a.svc.Merge(o.svc)
	a.resp.Merge(o.resp)
	a.completed += o.completed
	a.measured += o.measured
	for _, s := range o.top {
		s.Shard = shard
		s.Pid += pidOffset
		if s.Port >= 0 {
			s.Port += portOffset
		}
		a.noteSlow(s)
	}
}

// MergeSeries sums per-shard series pointwise into one series labeled
// label: the sub-networks coexist in simulated time on a shared grid,
// so total queue length, busy ports, and blocked waiters are the sums
// of the per-shard values. Shards stop at their own sample quotas and
// so record different horizons; the merged series covers the common
// prefix (the shortest shard's grid), beyond which a global state is
// not defined. Runs must share Dt.
func MergeSeries(label string, runs []Series) (Series, error) {
	if len(runs) == 0 {
		return Series{}, fmt.Errorf("obs: merging zero series")
	}
	n := runs[0].Len()
	for _, r := range runs {
		if r.Dt != runs[0].Dt {
			return Series{}, fmt.Errorf("obs: merging series with grids dt=%g and dt=%g", runs[0].Dt, r.Dt)
		}
		if r.Len() < n {
			n = r.Len()
		}
	}
	out := Series{
		Schema:         SeriesSchema,
		Label:          label,
		Dt:             runs[0].Dt,
		QueueLen:       make([]float64, n),
		BusyPorts:      make([]float64, n),
		BlockedWaiters: make([]float64, n),
	}
	for _, r := range runs {
		for k := 0; k < n; k++ {
			out.QueueLen[k] += r.QueueLen[k]
			out.BusyPorts[k] += r.BusyPorts[k]
			out.BlockedWaiters[k] += r.BlockedWaiters[k]
		}
	}
	return out, nil
}

// MergeShardTraces interleaves per-shard traces into one trace in the
// global namespace. pidOffsets[s] and portOffsets[s] lift shard s's
// local processor/port track ids; counter tracks ("queue length",
// "busy ports"), which carry per-shard running totals, are re-based to
// global totals by tracking each shard's last value during the merge.
//
// The interleave is a stable k-way merge on (Ts, shard index): among
// the current heads the earliest timestamp wins, ties go to the lowest
// shard, and each shard's internal order is preserved — so the output
// is a pure function of the per-shard streams, independent of worker
// count.
func MergeShardTraces(traces []*Trace, pidOffsets, portOffsets []int) *Trace {
	if len(traces) != len(pidOffsets) || len(traces) != len(portOffsets) {
		panic(fmt.Sprintf("obs: %d traces with %d pid and %d port offsets", len(traces), len(pidOffsets), len(portOffsets)))
	}
	out := NewTrace()
	total := 0
	for _, t := range traces {
		total += len(t.events)
	}
	out.events = make([]TraceEvent, 0, total)
	heads := make([]int, len(traces))
	// last[s] holds shard s's most recent counter values; sums holds the
	// current global totals.
	type counters struct{ queue, busy int64 }
	last := make([]counters, len(traces))
	var sums counters
	for {
		best := -1
		for s, t := range traces {
			if heads[s] >= len(t.events) {
				continue
			}
			if best == -1 || t.events[heads[s]].Ts < traces[best].events[heads[best]].Ts {
				best = s
			}
		}
		if best == -1 {
			return out
		}
		e := traces[best].events[heads[best]]
		heads[best]++
		// Counter tracks are keyed by name and stay global; every other
		// record sits on a processor or port track that moves to its
		// shard's slice of the namespace.
		switch {
		case e.Ph == 'C':
		case onPortTrack(e):
			e.Tid += portOffsets[best]
		default:
			e.Tid += pidOffsets[best]
		}
		if e.Ph == 'C' && len(e.Args) == 1 {
			v, ok := argInt64(e.Args[0].Val)
			if ok {
				switch e.Name {
				case "queue length":
					sums.queue += v - last[best].queue
					last[best].queue = v
					e.Args = []Arg{{"n", sums.queue}}
				case "busy ports":
					sums.busy += v - last[best].busy
					last[best].busy = v
					e.Args = []Arg{{"n", sums.busy}}
				}
			}
		} else if e.Ph == 'I' || e.Ph == 'X' {
			// Lift port references in slice/instant args into the global
			// namespace alongside the track ids.
			e.Args = liftArgs(e.Args, pidOffsets[best], portOffsets[best])
		}
		out.events = append(out.events, e)
	}
}

// argInt64 widens a counter arg value to int64.
func argInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	default:
		return 0, false
	}
}

// liftArgs rewrites "port" and "proc" args by the shard's offsets,
// copying the slice (the source trace stays untouched).
func liftArgs(args []Arg, pidOffset, portOffset int) []Arg {
	changed := false
	for _, a := range args {
		if a.Key == "port" || a.Key == "proc" {
			changed = true
			break
		}
	}
	if !changed {
		return args
	}
	out := make([]Arg, len(args))
	copy(out, args)
	for i, a := range out {
		v, ok := argInt64(a.Val)
		if !ok || v < 0 {
			continue
		}
		switch a.Key {
		case "port":
			out[i].Val = int(v) + portOffset
		case "proc":
			out[i].Val = int(v) + pidOffset
		}
	}
	return out
}
