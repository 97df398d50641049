package obs

import (
	"math"
	"testing"
)

func completeEvent(req int64, pid, port int, resp float64) Event {
	return Event{
		T: resp, Kind: KindComplete, Pid: pid, Port: port, Req: req, Aux: 1,
		Dur: resp, Wait: resp / 4, Block: resp / 4, Tx: resp / 4, Svc: resp / 4,
	}
}

func TestAttrRecorderMerge(t *testing.T) {
	// Two shards of 2 processors / 2 ports each; merge into a global
	// 4-processor view. Keep top-3 so one entry is evicted.
	a := NewAttrRecorder(3)
	b := NewAttrRecorder(3)
	a.Event(completeEvent(0, 0, 1, 8))
	a.Event(completeEvent(1, 1, 0, 2))
	b.Event(completeEvent(0, 0, 0, 5))
	b.Event(completeEvent(1, 1, 1, 3))

	merged := NewAttrRecorder(3)
	merged.Merge(a, 0, 0, 0)
	merged.Merge(b, 1, 2, 2)

	if merged.completed != 4 || merged.measured != 4 {
		t.Fatalf("completed/measured = %d/%d, want 4/4", merged.completed, merged.measured)
	}
	rep := merged.Report("m", nil)
	if got := rep.Phase("resp").Count; got != 4 {
		t.Errorf("merged resp histogram N = %d, want 4", got)
	}
	if got, want := rep.Phase("resp").Sum, 8.0+2+5+3; math.Abs(got-want) > 1e-12 {
		t.Errorf("merged resp Sum = %v, want %v", got, want)
	}
	want := []SlowRequest{
		{Req: 0, Pid: 0, Port: 1, Shard: 0, Resp: 8, Wait: 2, Block: 2, Tx: 2, Svc: 2},
		{Req: 0, Pid: 2, Port: 2, Shard: 1, Resp: 5, Wait: 1.25, Block: 1.25, Tx: 1.25, Svc: 1.25},
		{Req: 1, Pid: 3, Port: 3, Shard: 1, Resp: 3, Wait: 0.75, Block: 0.75, Tx: 0.75, Svc: 0.75},
	}
	if len(rep.Slowest) != len(want) {
		t.Fatalf("slowest table has %d entries, want %d: %+v", len(rep.Slowest), len(want), rep.Slowest)
	}
	for i, w := range want {
		if rep.Slowest[i] != w {
			t.Errorf("slowest[%d] = %+v, want %+v", i, rep.Slowest[i], w)
		}
	}
}

func TestAttrRecorderMergeTieBreaksByShard(t *testing.T) {
	a := NewAttrRecorder(4)
	b := NewAttrRecorder(4)
	a.Event(completeEvent(7, 0, 0, 5)) // same resp and req in both shards
	b.Event(completeEvent(7, 0, 0, 5))
	merged := NewAttrRecorder(4)
	// Merge in descending shard order on purpose: the ranking, not the
	// merge order, must put shard 0 first.
	merged.Merge(b, 1, 8, 8)
	merged.Merge(a, 0, 0, 0)
	rep := merged.Report("", nil)
	if rep.Slowest[0].Shard != 0 || rep.Slowest[1].Shard != 1 {
		t.Errorf("equal-resp entries ordered by shard %d,%d, want 0,1",
			rep.Slowest[0].Shard, rep.Slowest[1].Shard)
	}
}

func TestMergeSeries(t *testing.T) {
	a := Series{Schema: SeriesSchema, Dt: 0.5, QueueLen: []float64{1, 2, 3}, BusyPorts: []float64{0, 1, 1}, BlockedWaiters: []float64{0, 0, 1}}
	b := Series{Schema: SeriesSchema, Dt: 0.5, QueueLen: []float64{4, 5}, BusyPorts: []float64{1, 1}, BlockedWaiters: []float64{1, 0}}
	m, err := MergeSeries("sum", []Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("merged Len = %d, want common prefix 2", m.Len())
	}
	if m.QueueLen[0] != 5 || m.QueueLen[1] != 7 {
		t.Errorf("QueueLen = %v, want [5 7]", m.QueueLen)
	}
	if m.BusyPorts[1] != 2 || m.BlockedWaiters[0] != 1 {
		t.Errorf("BusyPorts/BlockedWaiters = %v/%v", m.BusyPorts, m.BlockedWaiters)
	}
	if m.Label != "sum" || m.Schema != SeriesSchema || m.Dt != 0.5 {
		t.Errorf("merged header = %+v", m)
	}
}

func TestMergeSeriesErrors(t *testing.T) {
	if _, err := MergeSeries("", nil); err == nil {
		t.Error("merging zero series should error")
	}
	a := Series{Dt: 0.5, QueueLen: []float64{1}}
	b := Series{Dt: 0.25, QueueLen: []float64{1}}
	if _, err := MergeSeries("", []Series{a, b}); err == nil {
		t.Error("merging mismatched grids should error")
	}
}

func TestMergeShardTraces(t *testing.T) {
	// Shard 0: arrival at t=1 (queue 0→1), tx start at t=2.
	s0 := NewTrace()
	s0.Event(Event{T: 1, Kind: KindArrival, Pid: 0, Port: -1, Req: 0})
	s0.Event(Event{T: 2, Kind: KindTransmitStart, Pid: 0, Port: 0, Req: 0, Dur: 1})
	// Shard 1: arrivals at t=1 and t=1.5.
	s1 := NewTrace()
	s1.Event(Event{T: 1, Kind: KindArrival, Pid: 1, Port: -1, Req: 0})
	s1.Event(Event{T: 1.5, Kind: KindArrival, Pid: 0, Port: -1, Req: 1})

	m := MergeShardTraces([]*Trace{s0, s1}, []int{0, 2}, []int{0, 2})
	ev := m.Events()
	// Expected interleave: t=1 shard0 (counter q=1), t=1 shard1 (counter
	// q=2 global), t=1.5 shard1 (q=3), then shard0's t=2 pair
	// (queue-length counter q=2 global, busy counter, wait slice).
	var got []struct {
		ts    float64
		name  string
		tid   int
		first int64
	}
	for _, e := range ev {
		var v int64
		if len(e.Args) > 0 {
			v, _ = argInt64(e.Args[0].Val)
		}
		got = append(got, struct {
			ts    float64
			name  string
			tid   int
			first int64
		}{e.Ts, e.Name, e.Tid, v})
	}
	type row = struct {
		ts    float64
		name  string
		tid   int
		first int64
	}
	want := []row{
		{1, "queue length", 0, 1},
		{1, "queue length", 0, 2},
		{1.5, "queue length", 0, 3},
		{2, "queue length", 0, 2},
		{2, "busy ports", 0, 1},
		{1, "wait", 0, 0}, // 'X' slice: Ts is the wait start (t=2-Dur), port arg 0
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeShardTracesLiftsTrackIds(t *testing.T) {
	s0 := NewTrace()
	s0.Event(Event{T: 1, Kind: KindRelease, Pid: 1, Port: 1, Req: 0, Dur: 0.5})
	s1 := NewTrace()
	s1.Event(Event{T: 2, Kind: KindRelease, Pid: 0, Port: 0, Req: 0, Dur: 0.5})
	m := MergeShardTraces([]*Trace{s0, s1}, []int{0, 4}, []int{0, 4})
	ev := m.Events()
	if len(ev) != 2 {
		t.Fatalf("merged %d events, want 2", len(ev))
	}
	if ev[0].Tid != 1 {
		t.Errorf("shard 0 svc track = port %d, want 1", ev[0].Tid)
	}
	if ev[1].Tid != 4 {
		t.Errorf("shard 1 svc track = port %d, want 4 (port 0 + offset 4)", ev[1].Tid)
	}
	// The "proc" arg on the svc slice must be lifted too.
	if v, _ := argInt64(ev[1].Args[0].Val); v != 4 {
		t.Errorf("shard 1 svc proc arg = %d, want 4", v)
	}
	// Source traces must be untouched.
	if s1.Events()[0].Tid != 0 || s1.Events()[0].Args[0].Val.(int) != 0 {
		t.Error("merge mutated a source trace")
	}
}
