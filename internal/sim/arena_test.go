package sim

import (
	"runtime"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/omega"
	"rsin/internal/rng"
)

// TestArenaLIFOReuse pins the free-list discipline: released slots are
// reused in LIFO order, and the arena does not grow while free slots
// remain.
func TestArenaLIFOReuse(t *testing.T) {
	a := newTaskArena(0)
	s0 := a.alloc(1, 10)
	s1 := a.alloc(2, 11)
	s2 := a.alloc(3, 12)
	if a.capSlots() != 3 || a.liveCount() != 3 {
		t.Fatalf("cap=%d live=%d after 3 allocs", a.capSlots(), a.liveCount())
	}
	a.release(s0)
	a.release(s2) // free list now (LIFO): s2, s0
	if got := a.alloc(4, 13); got != s2 {
		t.Fatalf("first realloc = slot %d, want most recently freed %d", got, s2)
	}
	if got := a.alloc(5, 14); got != s0 {
		t.Fatalf("second realloc = slot %d, want %d", got, s0)
	}
	if a.capSlots() != 3 {
		t.Fatalf("arena grew to %d slots with free slots available", a.capSlots())
	}
	if a.arrival[s1] != 2 || a.req[s1] != 11 {
		t.Fatalf("live slot %d clobbered: arrival %g req %d", s1, a.arrival[s1], a.req[s1])
	}
}

// TestArenaPropertyDisjoint drives the arena with a random alloc/release
// mix against a reference model: every live slot index is distinct, no
// alloc ever returns a slot that is still live, payloads are preserved
// until release, and reuse order is exactly LIFO over the freed set.
func TestArenaPropertyDisjoint(t *testing.T) {
	src := rng.New(99)
	a := newTaskArena(4)
	live := map[int32]float64{} // slot → arrival payload
	var freeStack []int32       // expected LIFO reuse order
	everCreated := 0
	for step := 0; step < 20000; step++ {
		if src.Intn(2) == 0 || len(live) == 0 {
			arrival := float64(step)
			slot := a.alloc(arrival, int64(step))
			if _, clash := live[slot]; clash {
				t.Fatalf("step %d: alloc returned live slot %d", step, slot)
			}
			if len(freeStack) > 0 {
				want := freeStack[len(freeStack)-1]
				if slot != want {
					t.Fatalf("step %d: alloc = slot %d, want LIFO head %d", step, slot, want)
				}
				freeStack = freeStack[:len(freeStack)-1]
			} else {
				everCreated++
				if int(slot) != everCreated-1 {
					t.Fatalf("step %d: fresh slot %d, want %d", step, slot, everCreated-1)
				}
			}
			live[slot] = arrival
		} else {
			// Release a pseudo-random live slot.
			k := src.Intn(len(live))
			var victim int32
			for s := range live {
				if k == 0 {
					victim = s
					break
				}
				k--
			}
			if a.arrival[victim] != live[victim] {
				t.Fatalf("step %d: slot %d payload drifted: %g, want %g",
					step, victim, a.arrival[victim], live[victim])
			}
			a.release(victim)
			delete(live, victim)
			freeStack = append(freeStack, victim)
		}
		if a.liveCount() != len(live) {
			t.Fatalf("step %d: liveCount %d, model %d", step, a.liveCount(), len(live))
		}
		if a.capSlots() != everCreated {
			t.Fatalf("step %d: capSlots %d, model %d", step, a.capSlots(), everCreated)
		}
	}
}

// TestProcTableFIFO checks the intrusive-chain FIFO against reference
// slices under a random interleaving across processors, with the
// brute-force chain oracle run after every operation.
func TestProcTableFIFO(t *testing.T) {
	const p = 8
	src := rng.New(7)
	pt := newProcTable(p, 4)
	ref := make([][]float64, p)
	for step := 0; step < 10000; step++ {
		pid := src.Intn(p)
		if src.Intn(2) == 0 || len(ref[pid]) == 0 {
			arrival := float64(step) * 0.5
			pt.push(pid, arrival, int64(step))
			ref[pid] = append(ref[pid], arrival)
		} else {
			got, _ := pt.popFront(pid)
			want := ref[pid][0]
			ref[pid] = ref[pid][1:]
			if got != want {
				t.Fatalf("step %d: popFront(%d) = %g, want %g", step, pid, got, want)
			}
		}
		if pt.queued(pid) != len(ref[pid]) {
			t.Fatalf("step %d: queued(%d) = %d, want %d", step, pid, pt.queued(pid), len(ref[pid]))
		}
		if err := pt.checkChains(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestHotStructuresZeroAlloc pins the per-operation allocation count of
// the kernel's hot data structures at exactly zero once they have grown
// to their peak working set: procTable/arena FIFO traffic, timer-tree
// churn at steady occupancy, and grant-table churn at peak occupancy.
// The hotalloc suppressions on timerTree.arm, grantTable.put and
// grantTable.take cite this test.
func TestHotStructuresZeroAlloc(t *testing.T) {
	const p = 64
	pt := newProcTable(p, 0)
	// Warm to peak backlog: 4 queued tasks per processor.
	for pid := 0; pid < p; pid++ {
		for k := 0; k < 4; k++ {
			pt.push(pid, 1, 0)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		for pid := 0; pid < p; pid++ {
			pt.push(pid, 2, 0)
			pt.popFront(pid)
		}
	}); avg != 0 {
		t.Errorf("procTable steady state allocates %g allocs/run, want 0", avg)
	}

	// The timer tree at steady occupancy: p arrival slots and p grant
	// slots armed, after the grant slots grew the tree past its initial
	// p leaves. Each event re-arms its own slot further out, as an
	// arrival or a transmission end does; a grant slot is first
	// disarmed and then re-armed, as a service completion whose index
	// the next grant reuses.
	q := newTimerTree(p)
	var seq uint64
	for slot := 0; slot < 2*p; slot++ {
		q.arm(slot, float64(slot), seq, evArrival)
		seq++
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 2*p; i++ {
			slot := q.next()
			t := q.time[slot] + 2*p + 0.5
			if slot >= p {
				q.disarm(slot)
			}
			q.arm(slot, t, seq, evTxDone)
			seq++
		}
	}); avg != 0 {
		t.Errorf("timer tree steady state allocates %g allocs/run, want 0", avg)
	}
	if q.armed != 2*p {
		t.Fatalf("timer tree holds %d armed slots, want %d", q.armed, 2*p)
	}

	// The grant table at peak occupancy: every slot is held, and each
	// release is followed by a grant that reuses the freed slot. One
	// full drain first grows the free list to its peak.
	gt := newGrantTable()
	for i := 0; i < p; i++ {
		gt.put(core.Grant{Processor: i}, 0)
	}
	for i := 0; i < p; i++ {
		gt.release(i)
	}
	for i := 0; i < p; i++ {
		gt.put(core.Grant{Processor: i}, 0)
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < p; i++ {
			g := gt.slot(i).g
			gt.release(i)
			gt.put(g, 1)
		}
	}); avg != 0 {
		t.Errorf("grant table steady state allocates %g allocs/run, want 0", avg)
	}
	if out := gt.outstanding(); out != p {
		t.Fatalf("grant table holds %d grants, want %d", out, p)
	}
}

// TestRunSteadyStateZeroAlloc is the end-to-end allocation proof: a
// whole sim.Run's malloc count must not grow with the sample count.
// Comparing a short and a 3× run of the same configuration cancels the
// setup allocations (networks, tables, queues, result assembly) and
// isolates the steady-state loop, which the arena + SoA + retained
// capacity design makes allocation-free. No network keeps a per-grant
// record: a grant is a plain value, and a Partitioned grant points at
// its partition's record, built with the system. The CollectDelays
// row, on the XBAR network, pins recordDelay's append into the sample
// buffer newKernel reserves.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	invariant.Enable(false)
	defer invariant.Enable(true)
	mallocs := func(mk func() core.Network, collect bool, samples int) uint64 {
		cfg := Config{
			Lambda: 0.2, MuN: 2, MuS: 1,
			Seed: 5, Warmup: 100, Samples: samples,
			CollectDelays: collect,
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		// Doubling growth would hide under the slack below; the
		// buffer's capacity shows it was reserved once.
		if collect && cap(res.Delays) != samples {
			t.Errorf("Delays capacity %d after %d samples, want the reserved %d", cap(res.Delays), samples, samples)
		}
		return m1.Mallocs - m0.Mallocs
	}
	xbar := func() core.Network { return crossbar.New(64, 32, 1) }
	for _, c := range []struct {
		name    string
		mk      func() core.Network
		collect bool
	}{
		{"SBUS", func() core.Network { return bus.New(64, 128) }, false},
		{"XBAR", xbar, false},
		{"OMEGA", func() core.Network { return omega.New(64, 2) }, false},
		{"PART", func() core.Network {
			subs := make([]core.Network, 4)
			for i := range subs {
				subs[i] = bus.New(16, 32)
			}
			return core.NewPartitioned(subs)
		}, false},
		{"CollectDelays", xbar, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 20000
			base := mallocs(c.mk, c.collect, n)
			big := mallocs(c.mk, c.collect, 3*n)
			// Slack absorbs runtime-internal allocations (GC metadata,
			// timer wheels); a single alloc per event would show up as
			// tens of thousands.
			const slack = 200
			if big > base+slack {
				t.Errorf("mallocs grew with samples: %d @ %d samples vs %d @ %d samples",
					base, n, big, 3*n)
			}
		})
	}
}

// TestRunMemoryFollowsConcurrency pins that a run's memory follows its
// peak concurrency, not the network's resource count: a 16-processor
// bus with ten million resources never holds more than a few grants at
// once, so sizing any per-grant structure from TotalResources would
// cost gigabytes where the run needs kilobytes.
func TestRunMemoryFollowsConcurrency(t *testing.T) {
	invariant.Enable(false)
	defer invariant.Enable(true)
	net := bus.New(16, 10_000_000)
	cfg := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 1, Warmup: 100, Samples: 10_000}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Run(net, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("Run on %d resources allocated %d bytes, want under 1 MiB", net.TotalResources(), got)
	}
}
