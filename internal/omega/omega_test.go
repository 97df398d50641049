package omega

import (
	"math/bits"
	"testing"
	"testing/quick"

	"rsin/internal/core"
	"rsin/internal/rng"
)

func TestSizesAndStages(t *testing.T) {
	for _, tc := range []struct{ n, stages int }{
		{2, 1}, {4, 2}, {8, 3}, {16, 4}, {64, 6},
	} {
		o := New(tc.n, 1)
		if o.Stages() != tc.stages {
			t.Errorf("N=%d: stages = %d, want %d", tc.n, o.Stages(), tc.stages)
		}
		if o.Processors() != tc.n || o.Ports() != tc.n {
			t.Errorf("N=%d: accessors wrong", tc.n)
		}
	}
}

func TestInvalidSizesPanic(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,1) did not panic", n)
				}
			}()
			New(n, 1)
		}()
	}
}

// TestTagRoutingReachesEveryPort verifies the classic Omega property:
// destination-tag routing connects every (source, destination) pair on
// an idle network.
func TestTagRoutingReachesEveryPort(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		o := New(n, 1)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				g, ok := o.AcquireTag(src, dst)
				if !ok {
					t.Fatalf("N=%d: tag route %d→%d failed on idle network", n, src, dst)
				}
				if g.Port != dst {
					t.Fatalf("N=%d: route %d→%d landed on %d", n, src, dst, g.Port)
				}
				o.ReleasePath(g)
				o.ReleaseResource(g)
			}
		}
	}
}

// TestOmegaBlockingExample reproduces the paper's Section II example of
// network blockage under address mapping: on an 8×8 Omega network with
// processors 0,1,2 requesting and resources 0,1,2 available, the
// mapping {(0,0),(1,2),(2,1)} cannot be fully routed, while
// {(0,0),(1,1),(2,2)} can.
func TestOmegaBlockingExample(t *testing.T) {
	route := func(pairs [][2]int) int {
		o := New(8, 1)
		ok := 0
		var grants []core.Grant
		for _, pr := range pairs {
			if g, success := o.AcquireTag(pr[0], pr[1]); success {
				grants = append(grants, g)
				ok++
			}
		}
		for _, g := range grants {
			o.ReleasePath(g)
			o.ReleaseResource(g)
		}
		return ok
	}
	good := [][][2]int{
		{{0, 0}, {1, 1}, {2, 2}},
		{{0, 1}, {1, 0}, {2, 2}},
		{{0, 2}, {1, 0}, {2, 1}},
		{{0, 2}, {1, 1}, {2, 0}},
	}
	bad := [][][2]int{
		{{0, 0}, {1, 2}, {2, 1}},
		{{0, 1}, {1, 2}, {2, 0}},
	}
	for _, m := range good {
		if got := route(m); got != 3 {
			t.Errorf("mapping %v routed %d, want 3", m, got)
		}
	}
	for _, m := range bad {
		if got := route(m); got != 2 {
			t.Errorf("mapping %v routed %d, want 2 (paper says max 2 of 3)", m, got)
		}
	}
}

// TestDistributedBeatsBadMapping shows the RSIN advantage: for the same
// Section II scenario the distributed search allocates all three
// resources regardless of arrival order, because a blocked request
// reroutes.
func TestDistributedBeatsBadMapping(t *testing.T) {
	o := New(8, 1)
	// Only resources 0, 1, 2 available; everything else busy.
	for j := 3; j < 8; j++ {
		o.SetResourceAvailability(j, 0)
	}
	granted := 0
	for _, pid := range []int{0, 1, 2} {
		if _, ok := o.Acquire(pid); ok {
			granted++
		}
	}
	if granted != 3 {
		t.Errorf("distributed scheduling granted %d of 3, want 3", granted)
	}
}

// TestFig11Example reproduces the paper's Fig. 11 walkthrough: on an
// 8×8 network with resources R0, R1, R4, R5 available and processors
// P0, P3, P4, P5 requesting, every request finds a resource; at least
// one request is rejected at a stage-1 box and reroutes.
func TestFig11Example(t *testing.T) {
	o := New(8, 1)
	avail := map[int]bool{0: true, 1: true, 4: true, 5: true}
	for j := 0; j < 8; j++ {
		if !avail[j] {
			o.SetResourceAvailability(j, 0)
		}
	}
	grants, oks := o.AcquireBatch([]int{0, 3, 4, 5})
	ports := map[int]bool{}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("request %d found no resource", i)
		}
		g := grants[i]
		if !avail[g.Port] {
			t.Fatalf("request %d was granted busy resource R%d", i, g.Port)
		}
		if ports[g.Port] {
			t.Fatalf("resource R%d double-allocated", g.Port)
		}
		ports[g.Port] = true
	}
	tel := o.Telemetry()
	if tel.Grants != 4 {
		t.Fatalf("grants = %d, want 4", tel.Grants)
	}
	// Paper: each request passes through 3.5 interchange boxes on
	// average — 14 visits for 4 requests, including the reject/reroute
	// detour of the request that chased stale status.
	if tel.Rejects != 1 {
		t.Errorf("rejects = %d, want 1 (stale-status conflict)", tel.Rejects)
	}
	// Each grant's Rejects counts its own request's rejects, so the
	// batch's grants sum to the telemetry's count.
	var granted int64
	for _, g := range grants {
		granted += g.Rejects
	}
	if granted != tel.Rejects {
		t.Errorf("batch grants carry %d rejects, telemetry counts %d", granted, tel.Rejects)
	}
	if avg := float64(tel.BoxVisits) / 4; avg != 3.5 {
		t.Errorf("average boxes per request = %v, paper reports 3.5 (visits=%d)", avg, tel.BoxVisits)
	}
}

// TestRSINNeverWorseThanTag: on an otherwise idle network, whenever tag
// routing to some eligible port succeeds, the distributed search must
// also succeed (it can reroute, tag routing cannot).
func TestRSINNeverWorseThanTag(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		oTag := New(8, 1)
		oRSIN := New(8, 1)
		// Random availability pattern with at least one free resource.
		freePorts := 0
		for j := 0; j < 8; j++ {
			f := src.Intn(2)
			if f == 0 {
				oTag.SetResourceAvailability(j, 0)
				oRSIN.SetResourceAvailability(j, 0)
			} else {
				freePorts++
			}
		}
		if freePorts == 0 {
			return true
		}
		pid := src.Intn(8)
		// Tag: try a random free port.
		dst := src.Intn(8)
		for oTag.FreeResources(dst) == 0 {
			dst = (dst + 1) % 8
		}
		_, tagOK := oTag.AcquireTag(pid, dst)
		_, rsinOK := oRSIN.Acquire(pid)
		if tagOK && !rsinOK {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPathReleaseRestoresIdleState(t *testing.T) {
	o := New(16, 2)
	var grants []core.Grant
	for pid := 0; pid < 16; pid++ {
		if g, ok := o.Acquire(pid); ok {
			grants = append(grants, g)
		}
	}
	if len(grants) == 0 {
		t.Fatal("no grants on idle network")
	}
	for _, g := range grants {
		o.ReleasePath(g)
		o.ReleaseResource(g)
	}
	// Network must be fully idle again: every (src,dst) tag-routable.
	for src := 0; src < 16; src++ {
		g, ok := o.AcquireTag(src, (src+5)%16)
		if !ok {
			t.Fatalf("network not clean after releases: %d blocked", src)
		}
		o.ReleasePath(g)
		o.ReleaseResource(g)
	}
}

func TestConcurrentCircuitsDisjointWires(t *testing.T) {
	// Identity permutation routes concurrently on an Omega network.
	o := New(8, 1)
	var grants []core.Grant
	for pid := 0; pid < 8; pid++ {
		g, ok := o.AcquireTag(pid, pid)
		if !ok {
			t.Fatalf("identity route %d blocked", pid)
		}
		grants = append(grants, g)
	}
	for _, g := range grants {
		o.ReleasePath(g)
		o.ReleaseResource(g)
	}
}

func TestPerPortResources(t *testing.T) {
	// With r=2 per port, two requests can reserve the same port's
	// resources sequentially (after the first transmission completes).
	o := New(4, 2)
	g1, ok := o.Acquire(0)
	if !ok {
		t.Fatal("first acquire failed")
	}
	o.ReleasePath(g1) // transmission done; port bus free again, 1 resource left
	if o.FreeResources(g1.Port) != 1 {
		t.Errorf("free at port %d = %d, want 1", g1.Port, o.FreeResources(g1.Port))
	}
	if o.TotalResources() != 8 {
		t.Errorf("TotalResources = %d, want 8", o.TotalResources())
	}
}

func TestWithoutRerouteFailsMore(t *testing.T) {
	// Construct a scenario where the preferred lane leads to a dead end:
	// rerouting finds the other path, no-reroute gives up.
	count := func(opts ...Option) int {
		granted := 0
		for trial := 0; trial < 200; trial++ {
			o := New(8, 1, opts...)
			src := rng.New(uint64(trial))
			// Random busy pattern.
			for j := 0; j < 8; j++ {
				if src.Intn(4) != 0 {
					o.SetResourceAvailability(j, 0)
				}
			}
			// Random pre-existing circuits to occupy wires.
			for k := 0; k < 3; k++ {
				o.AcquireTag(src.Intn(8), src.Intn(8))
			}
			if _, ok := o.Acquire(src.Intn(8)); ok {
				granted++
			}
		}
		return granted
	}
	with := count()
	without := count(WithoutReroute())
	if with < without {
		t.Errorf("reroute granted %d, no-reroute %d: reroute should never be worse", with, without)
	}
	if with == without {
		t.Log("warning: no scenario separated the policies (acceptable but unexpected)")
	}
}

func TestResetClearsState(t *testing.T) {
	o := New(8, 1)
	o.Acquire(0)
	o.Acquire(1)
	o.Reset()
	if o.Telemetry().Grants != 0 {
		t.Error("telemetry not reset")
	}
	for pid := 0; pid < 8; pid++ {
		if _, ok := o.Acquire(pid); !ok {
			t.Fatalf("acquire %d failed after reset", pid)
		}
	}
}

func TestLanePolicyString(t *testing.T) {
	if LaneUpperFirst.String() != "upper-first" || LaneRandom.String() != "random" {
		t.Error("lane policy strings wrong")
	}
	if LanePolicy(9).String() == "" {
		t.Error("unknown lane policy should format")
	}
}

func TestTopologyAccessors(t *testing.T) {
	o := New(8, 1)
	if o.EntryWire(3) != o.shuffle(3) {
		t.Error("EntryWire mismatch")
	}
	outs := o.BoxOutputs(0, 5)
	if outs != [2]int{4, 5} {
		t.Errorf("BoxOutputs(0,5) = %v, want [4 5]", outs)
	}
	if o.NextInput(0, 5) != o.shuffle(5) {
		t.Error("NextInput mismatch")
	}
	if o.WireOccupied(0, 0) {
		t.Error("idle network has occupied wire")
	}
	if !o.PortEligible(2) {
		t.Error("idle port not eligible")
	}
	g, _ := o.Acquire(0)
	if !o.WireOccupied(o.Stages()-1, g.Port) {
		t.Error("granted path's final wire not occupied")
	}
}

func TestLaneRandomPolicy(t *testing.T) {
	// LaneRandom still grants everything on an idle network and spreads
	// across ports.
	o := New(8, 2, WithLanePolicy(LaneRandom), WithSeed(99))
	ports := map[int]bool{}
	for pid := 0; pid < 8; pid++ {
		g, ok := o.Acquire(pid)
		if !ok {
			t.Fatalf("random-lane acquire %d failed", pid)
		}
		ports[g.Port] = true
	}
	if len(ports) < 4 {
		t.Errorf("random lanes hit only %d distinct ports", len(ports))
	}
}

func TestSetResourceAvailabilityClamps(t *testing.T) {
	o := New(4, 2)
	o.SetResourceAvailability(0, -5)
	if o.FreeResources(0) != 0 {
		t.Error("negative availability not clamped to 0")
	}
	o.SetResourceAvailability(0, 99)
	if o.FreeResources(0) != 2 {
		t.Error("availability not clamped to perPort")
	}
}

func TestTypedNameAndBoundAccessors(t *testing.T) {
	to := NewTyped(8, uniformPools(8, []int{1, 1}))
	if to.Name() != "TYPED-OMEGA(8x8,t=2)" {
		t.Errorf("typed name %q", to.Name())
	}
	b := to.Bind(make([]int, 8))
	if b.TotalResources() != 16 || b.Ports() != 8 || b.Processors() != 8 {
		t.Error("bound accessors wrong")
	}
	if b.Name() == "" {
		t.Error("bound name empty")
	}
}

func TestReleasePanics(t *testing.T) {
	o := New(4, 1)
	g, _ := o.Acquire(0)
	o.ReleasePath(g)
	for name, f := range map[string]func(){
		"double path":  func() { o.ReleasePath(g) },
		"res overflow": func() { o.ReleaseResource(g); o.ReleaseResource(g) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	o := New(16, 1)
	seen := make([]bool, 16)
	for i := 0; i < 16; i++ {
		s := o.shuffle(i)
		if seen[s] {
			t.Fatalf("shuffle not a permutation: %d hit twice", s)
		}
		seen[s] = true
	}
	// Perfect shuffle of 16 wires: i = 1 (0001) → 2 (0010).
	if o.shuffle(1) != 2 {
		t.Errorf("shuffle(1) = %d, want 2", o.shuffle(1))
	}
	if o.shuffle(8) != 1 {
		t.Errorf("shuffle(8) = %d, want 1", o.shuffle(8))
	}
}

func TestReachCounts(t *testing.T) {
	// From a stage-s output wire, exactly 2^(stages-1-s) ports are
	// reachable — for every supported wiring.
	for _, w := range []Wiring{OmegaWiring, CubeWiring} {
		o := New(16, 1, WithWiring(w))
		reach := refReach(o)
		for s := 0; s < o.Stages(); s++ {
			want := 1 << (o.Stages() - 1 - s)
			for wire := 0; wire < 16; wire++ {
				if got := bits.OnesCount64(reach[s][wire]); got != want {
					t.Fatalf("%v: reach[%d][%d] = %d ports, want %d", w, s, wire, got, want)
				}
			}
		}
	}
}

// TestClosedFormReachMatchesTable requires the stage registers' closed
// form to give every stage-output wire exactly the ports the reach
// table propagated back through the wiring, for both wirings and every
// N = 2, 4, …, 64, and the box pairing to match the wiring's.
func TestClosedFormReachMatchesTable(t *testing.T) {
	for _, w := range []Wiring{OmegaWiring, CubeWiring} {
		for n := 2; n <= 64; n *= 2 {
			o := New(n, 1, WithWiring(w))
			wr := newRefWiring(o)
			for s, row := range refReach(o) {
				for wire, want := range row {
					var got uint64
					for j := 0; j < n; j++ {
						if o.reaches(s, wire, 1<<uint(j)) {
							got |= 1 << uint(j)
						}
					}
					if got != want {
						t.Fatalf("%v N=%d: stage %d wire %d reaches %#x, table %#x", w, n, s, wire, got, want)
					}
					if o.pair(s, wire) != wr.pair(s, wire) {
						t.Fatalf("%v N=%d: stage %d pairs wire %d with %d, want %d", w, n, s, wire, o.pair(s, wire), wr.pair(s, wire))
					}
				}
			}
			for pos := 0; pos < n; pos++ {
				if o.NextInput(0, pos) != wr.next(pos) {
					t.Fatalf("%v N=%d: wire %d feeds input %d, want %d", w, n, pos, o.NextInput(0, pos), wr.next(pos))
				}
			}
		}
	}
}
