package obs

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.Contains(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestMultiFansOutInOrder(t *testing.T) {
	var order []string
	a := Func(func(e Event) { order = append(order, "a") })
	b := Func(func(e Event) { order = append(order, "b") })
	p := Multi(nil, a, nil, b)
	p.Event(Event{Kind: KindArrival})
	if got := strings.Join(order, ""); got != "ab" {
		t.Fatalf("fan-out order %q, want ab", got)
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no probes must stay nil to keep the fast path")
	}
	a := Func(func(Event) {})
	if got := Multi(nil, a); got == nil {
		t.Fatal("single probe dropped")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg)
	rec.PreparePorts(2)

	// One task: arrives at t=1 (blocked), starts at t=3 on port 1,
	// transmission ends at t=4, service ends at t=6. A second attempt
	// is rejected with 2 in-network rejects.
	rec.Event(Event{T: 1, Kind: KindArrival, Pid: 0, Port: -1})
	rec.Event(Event{T: 1, Kind: KindEnqueue, Pid: 0, Port: -1, Aux: 1})
	rec.Event(Event{T: 3, Kind: KindGrant, Pid: 0, Port: 1, Aux: 1})
	rec.Event(Event{T: 3, Kind: KindTransmitStart, Pid: 0, Port: 1, Dur: 2})
	rec.Event(Event{T: 4, Kind: KindTransmitEnd, Pid: 0, Port: 1})
	rec.Event(Event{T: 4, Kind: KindReject, Pid: 1, Port: -1, Aux: 2})
	rec.Event(Event{T: 6, Kind: KindRelease, Pid: 0, Port: 1, Dur: 2})

	if got := reg.Counter("sim.arrivals").Value(); got != 1 {
		t.Errorf("arrivals = %d", got)
	}
	if got := reg.Counter("sim.rejects").Value(); got != 3 {
		t.Errorf("rejects = %d, want 3 (1 on grant + 2 on rejected attempt)", got)
	}
	if got := reg.Counter("sim.reroutes").Value(); got != 1 {
		t.Errorf("reroutes = %d", got)
	}
	snap := reg.Snapshot(6)
	// Queue length: 1 over [1,3), 0 over [3,6) → mean (2·1)/5 = 0.4
	// over the observed window [1,6).
	var qmean float64
	for _, g := range snap.Gauges {
		if g.Name == "sim.queue_len" {
			qmean = g.Mean
		}
	}
	if qmean < 0.39 || qmean > 0.41 {
		t.Errorf("queue_len mean = %g, want 0.4", qmean)
	}
	// Port 1 busy over [3,4) of window [0,6) → mean 1/6.
	var p1 float64
	for _, g := range snap.Gauges {
		if g.Name == "sim.port_busy.001" {
			p1 = g.Mean
		}
	}
	if p1 < 0.166 || p1 > 0.167 {
		t.Errorf("port 1 occupancy = %g, want 1/6", p1)
	}
	var waits int64
	for _, h := range snap.Histograms {
		if h.Name == "sim.wait" {
			waits = h.Count
		}
	}
	if waits != 1 {
		t.Errorf("wait histogram count = %d", waits)
	}
}

func TestSnapshotDoesNotPerturbGauges(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g")
	g.Set(0, 1)
	_ = reg.Snapshot(10) // closes a copy of the window at t=10
	g.Set(5, 0)          // must not panic: live window still at t=0
	if m := g.tw.Mean(); m != 1 {
		t.Errorf("mean after snapshot = %g, want 1 (window [0,5) at value 1)", m)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("c") != reg.Counter("c") {
		t.Error("counter identity lost")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("gauge identity lost")
	}
	if reg.Log2Histogram("h", -4, 4) != reg.Log2Histogram("h", -4, 4) {
		t.Error("histogram identity lost")
	}
}
