package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// fuzzReader hands out the fuzz input one byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// FuzzShardMerges builds 1–4 shards of hand-made recorder inputs from
// the fuzz bytes — trace records on tracks up to a few thousand ids,
// sampled series of uneven lengths, and attribution recorders — and
// checks each shard merge against its contract:
//
//   - MergeShardTraces emits every input record exactly once, keeps each
//     shard's order, takes the earliest head with ties to the lower
//     shard, re-bases counters to the sum of every shard's latest value,
//     and lifts processor and port records by their own offsets, so
//     WriteTraces puts every processor record on a "proc" track, every
//     service slice on a "port" track, and the port tracks above the
//     processor tracks;
//   - MergeSeries keeps the shortest shard's length and sums pointwise;
//   - AttrRecorder.Merge sums the counts and phase histograms, and its
//     slowest table is the sorted union of the shards' measured
//     requests, cut to K.
func FuzzShardMerges(f *testing.F) {
	f.Add([]byte{1, 3, 3, 8, 0, 1, 5, 1, 2, 9, 2, 4, 0, 7, 3, 6, 2, 1, 1, 4, 5, 3, 2, 2})
	f.Add([]byte{3, 255, 200, 12, 2, 3, 4, 1, 3, 0, 9, 4, 2, 2, 1, 7, 0, 0, 3, 250, 180, 10, 3, 3, 3, 2, 1, 6, 7, 1})
	f.Add([]byte("sharded traces merge on simulated time, ties to the lower shard"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		shards := 1 + r.next()%4
		k := r.next() % 4
		pidOff := make([]int, shards)
		portOff := make([]int, shards)
		traces := make([]*Trace, shards)
		runs := make([]Series, shards)
		attrs := make([]*AttrRecorder, shards)
		var union []SlowRequest
		var completed, measured int64
		var respSum float64
		pids, ports := 0, 0
		for s := 0; s < shards; s++ {
			nProcs, nPorts := 1+3*r.next(), 1+3*r.next()
			pidOff[s], portOff[s] = pids, ports
			pids += nProcs
			ports += nPorts

			traces[s] = NewTrace()
			for i, n := 0, r.next()%16; i < n; i++ {
				e := TraceEvent{Cat: fmt.Sprintf("%d/%d", s, i), Ts: float64(r.next()%8) / 2}
				switch r.next() % 5 {
				case 0, 1:
					e.Name, e.Ph = []string{"queue length", "busy ports"}[i%2], 'C'
					e.Args = []Arg{{"n", r.next() % 8}}
				case 2:
					e.Name, e.Ph, e.Tid = "wait", 'X', r.next()*5%nProcs
					e.Args = []Arg{{"port", r.next() % nPorts}}
				case 3:
					e.Name, e.Ph, e.Tid = "svc", 'X', r.next()*5%nPorts
					e.Args = []Arg{{"proc", r.next() % nProcs}}
				case 4:
					e.Name, e.Ph, e.Tid = "reject", 'I', r.next()*5%nProcs
					e.Args = []Arg{{"rejects", 1}}
				}
				traces[s].events = append(traces[s].events, e)
			}

			runs[s] = Series{Schema: SeriesSchema, Dt: 0.5}
			for i, n := 0, r.next()%6; i < n; i++ {
				runs[s].QueueLen = append(runs[s].QueueLen, float64(r.next()%4))
				runs[s].BusyPorts = append(runs[s].BusyPorts, float64(r.next()%4))
				runs[s].BlockedWaiters = append(runs[s].BlockedWaiters, float64(r.next()%4))
			}

			attrs[s] = NewAttrRecorder(k)
			for req, n := 0, r.next()%8; req < n; req++ {
				resp := float64(r.next()%16) / 4
				e := Event{
					T: 10, Kind: KindComplete, Pid: r.next() % nProcs, Port: r.next() % nPorts,
					Req: int64(req), Aux: int64(r.next() % 2), Dur: resp,
					Wait: resp / 4, Block: resp / 4, Tx: resp / 4, Svc: resp / 4,
				}
				attrs[s].Event(e)
				completed++
				if e.Aux == 1 {
					measured++
					respSum += resp
					union = append(union, SlowRequest{
						Req: e.Req, Pid: e.Pid + pidOff[s], Port: e.Port + portOff[s], Shard: s, Resp: resp,
						Wait: e.Wait, Block: e.Block, Tx: e.Tx, Svc: e.Svc,
					})
				}
			}
		}

		checkTraceMerge(t, traces, pidOff, portOff)

		merged, err := MergeSeries("m", runs)
		if err != nil {
			t.Fatal(err)
		}
		n := runs[0].Len()
		for _, run := range runs {
			n = min(n, run.Len())
		}
		if merged.Len() != n || len(merged.BusyPorts) != n || len(merged.BlockedWaiters) != n {
			t.Fatalf("merged series has %d/%d/%d samples, want the shortest shard's %d",
				merged.Len(), len(merged.BusyPorts), len(merged.BlockedWaiters), n)
		}
		for i := 0; i < n; i++ {
			var q, b, w float64
			for _, run := range runs {
				q += run.QueueLen[i]
				b += run.BusyPorts[i]
				w += run.BlockedWaiters[i]
			}
			if merged.QueueLen[i] != q || merged.BusyPorts[i] != b || merged.BlockedWaiters[i] != w {
				t.Fatalf("sample %d: merged %g/%g/%g, want the shard sums %g/%g/%g",
					i, merged.QueueLen[i], merged.BusyPorts[i], merged.BlockedWaiters[i], q, b, w)
			}
		}

		m := NewAttrRecorder(k)
		for s, a := range attrs {
			m.Merge(a, s, pidOff[s], portOff[s])
		}
		rep := m.Report("m", nil)
		if rep.Completed != completed || rep.Measured != measured {
			t.Fatalf("merged completed/measured %d/%d, want %d/%d", rep.Completed, rep.Measured, completed, measured)
		}
		for _, p := range rep.Phases {
			if p.Count != measured {
				t.Fatalf("merged %s histogram counts %d, want %d", p.Name, p.Count, measured)
			}
		}
		if got := rep.Phase("resp").Sum; got != respSum {
			t.Fatalf("merged resp sum %g, want %g", got, respSum)
		}
		sort.Slice(union, func(i, j int) bool { return slowerThan(union[i], union[j]) })
		if len(union) > k {
			union = union[:k]
		}
		if len(rep.Slowest) != len(union) {
			t.Fatalf("merged slowest table has %d entries, want %d", len(rep.Slowest), len(union))
		}
		for i := range union {
			if rep.Slowest[i] != union[i] {
				t.Fatalf("slowest[%d] = %+v, want %+v", i, rep.Slowest[i], union[i])
			}
		}
	})
}

// checkTraceMerge merges the shard traces and checks the result record
// by record. Every input record carries "shard/index" in its Cat, which
// the merge passes through unchanged.
func checkTraceMerge(t *testing.T, traces []*Trace, pidOff, portOff []int) {
	t.Helper()
	out := MergeShardTraces(traces, pidOff, portOff)
	heads := make([]int, len(traces))
	type counters struct{ queue, busy int64 }
	last := make([]counters, len(traces))
	for j, e := range out.Events() {
		var s, i int
		if _, err := fmt.Sscanf(e.Cat, "%d/%d", &s, &i); err != nil {
			t.Fatalf("output record %d has tag %q: %v", j, e.Cat, err)
		}
		if i != heads[s] {
			t.Fatalf("output record %d is shard %d's record %d, want its record %d", j, s, i, heads[s])
		}
		for o, src := range traces {
			if o == s || heads[o] >= len(src.events) {
				continue
			}
			if h := src.events[heads[o]].Ts; h < e.Ts || (h == e.Ts && o < s) {
				t.Fatalf("output record %d takes shard %d's head at ts %g before shard %d's at ts %g", j, s, e.Ts, o, h)
			}
		}
		in := traces[s].events[i]
		heads[s]++
		switch {
		case e.Ph == 'C':
			v := int64(in.Args[0].Val.(int))
			var sum int64
			if e.Name == "queue length" {
				last[s].queue = v
				for _, c := range last {
					sum += c.queue
				}
			} else {
				last[s].busy = v
				for _, c := range last {
					sum += c.busy
				}
			}
			if got, _ := argInt64(e.Args[0].Val); got != sum {
				t.Fatalf("output record %d: %s counter %d, want the shards' sum %d", j, e.Name, got, sum)
			}
		case e.Name == "svc":
			if e.Tid != in.Tid+portOff[s] || e.Args[0].Val != in.Args[0].Val.(int)+pidOff[s] {
				t.Fatalf("output record %d: svc on port %d proc %v, want port %d proc %d",
					j, e.Tid, e.Args[0].Val, in.Tid+portOff[s], in.Args[0].Val.(int)+pidOff[s])
			}
		case e.Name == "wait":
			if e.Tid != in.Tid+pidOff[s] || e.Args[0].Val != in.Args[0].Val.(int)+portOff[s] {
				t.Fatalf("output record %d: wait on processor %d port %v, want processor %d port %d",
					j, e.Tid, e.Args[0].Val, in.Tid+pidOff[s], in.Args[0].Val.(int)+portOff[s])
			}
		default:
			if e.Tid != in.Tid+pidOff[s] {
				t.Fatalf("output record %d: %s on processor %d, want %d", j, e.Name, e.Tid, in.Tid+pidOff[s])
			}
		}
	}
	for s, src := range traces {
		if heads[s] != len(src.events) {
			t.Fatalf("shard %d: %d of %d records merged", s, heads[s], len(src.events))
		}
	}

	var buf bytes.Buffer
	if err := WriteTraces(&buf, out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	track := map[int]string{}
	maxProc, minPort := -1, -1
	for _, e := range doc.TraceEvents {
		if e.Name != "thread_name" {
			continue
		}
		if _, dup := track[e.Tid]; dup {
			t.Fatalf("track %d named twice", e.Tid)
		}
		track[e.Tid], _ = e.Args["name"].(string)
		if strings.HasPrefix(track[e.Tid], "proc ") {
			maxProc = max(maxProc, e.Tid)
		} else if minPort < 0 || e.Tid < minPort {
			minPort = e.Tid
		}
	}
	if minPort >= 0 && minPort <= maxProc {
		t.Fatalf("port track %d lies below processor track %d", minPort, maxProc)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" && e.Ph != "I" {
			continue
		}
		want := "proc "
		if e.Name == "svc" {
			want = "port "
		}
		if !strings.HasPrefix(track[e.Tid], want) {
			t.Fatalf("%s record on track %d named %q, want a %q track", e.Name, e.Tid, track[e.Tid], want)
		}
	}
}
