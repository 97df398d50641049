package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
	"rsin/internal/rng"
)

func TestWaiterSetBasics(t *testing.T) {
	ws := newWaiterSet(130) // spans three words
	if !ws.empty() {
		t.Fatal("new set not empty")
	}
	for _, pid := range []int{0, 63, 64, 100, 129} {
		ws.add(pid)
	}
	ws.add(100) // duplicate add is a no-op
	if ws.n != 5 {
		t.Fatalf("count = %d, want 5", ws.n)
	}
	var got []int
	for pid := ws.next(0, 130); pid != -1; pid = ws.next(pid+1, 130) {
		got = append(got, pid)
	}
	want := []int{0, 63, 64, 100, 129}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iteration %v, want %v", got, want)
	}
	if ws.next(65, 130) != 100 {
		t.Errorf("next(65, 130) = %d, want 100", ws.next(65, 130))
	}
	if ws.next(65, 100) != -1 {
		t.Errorf("next(65, 100) = %d, want -1: 100 is past the bound", ws.next(65, 100))
	}
	if ws.next(130, 130) != -1 {
		t.Errorf("next past end = %d, want -1", ws.next(130, 130))
	}
	ws.remove(63)
	ws.remove(63) // duplicate remove is a no-op
	if ws.contains(63) || !ws.contains(64) || ws.n != 4 {
		t.Fatalf("remove bookkeeping wrong: n=%d", ws.n)
	}
	for _, pid := range []int{0, 64, 100, 129} {
		ws.remove(pid)
	}
	if !ws.empty() {
		t.Fatal("set not empty after removing all members")
	}
	if ws.next(0, 130) != -1 {
		t.Fatal("next on empty set did not return -1")
	}
}

// TestWaiterSetPropertyVsMap drives the bitset with a random operation
// mix and checks every answer against a reference map implementation,
// including full ascending iteration after each step.
func TestWaiterSetPropertyVsMap(t *testing.T) {
	const p = 200
	src := rng.New(0xbadcafe)
	ws := newWaiterSet(p)
	ref := map[int]bool{}
	for step := 0; step < 5000; step++ {
		pid := src.Intn(p)
		switch src.Intn(3) {
		case 0:
			ws.add(pid)
			ref[pid] = true
		case 1:
			ws.remove(pid)
			delete(ref, pid)
		case 2:
			if ws.contains(pid) != ref[pid] {
				t.Fatalf("step %d: contains(%d) = %v, ref %v", step, pid, ws.contains(pid), ref[pid])
			}
		}
		if ws.n != len(ref) {
			t.Fatalf("step %d: count %d, ref %d", step, ws.n, len(ref))
		}
		// Ascending iteration must enumerate exactly the reference set.
		seen := 0
		prev := -1
		for m := ws.next(0, p); m != -1; m = ws.next(m+1, p) {
			if m <= prev || !ref[m] {
				t.Fatalf("step %d: iteration yielded %d (prev %d, ref member %v)", step, m, prev, ref[m])
			}
			prev = m
			seen++
		}
		if seen != len(ref) {
			t.Fatalf("step %d: iterated %d members, ref has %d", step, seen, len(ref))
		}
	}
}

// TestWaiterSetBoundedScan checks the bounded scan on random sets and
// ranges: iterating next(from, hi) yields exactly the members of
// [from, hi) in ascending order, then -1. The sizes straddle word
// boundaries, and the ranges include empty, inverted and overhanging
// ones.
func TestWaiterSetBoundedScan(t *testing.T) {
	src := rng.New(0x5ca1ab1e)
	for _, p := range []int{1, 63, 64, 65, 200, 4096} {
		ws := newWaiterSet(p)
		member := make([]bool, p)
		for step := 0; step < 400; step++ {
			// Fill to a random density, from nearly empty to nearly full.
			density := src.Intn(100)
			for pid := range member {
				member[pid] = src.Intn(100) < density
				if member[pid] {
					ws.add(pid)
				} else {
					ws.remove(pid)
				}
			}
			from, hi := src.Intn(p+66)-1, src.Intn(p+66)-1
			var got, want []int
			for pid := ws.next(from, hi); pid != -1; pid = ws.next(pid+1, hi) {
				got = append(got, pid)
				if len(got) > p {
					t.Fatalf("p=%d step %d: next(%d, %d) does not terminate", p, step, from, hi)
				}
			}
			for pid := max(from, 0); pid < min(hi, p); pid++ {
				if member[pid] {
					want = append(want, pid)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("p=%d step %d: scan of [%d, %d) yields %v, want %v", p, step, from, hi, got, want)
			}
		}
	}
}

// diffNets builds the network matrix for the differential proof. Fresh
// instances per run: networks carry telemetry and allocation state.
func diffNets() map[string]func() core.Network {
	return map[string]func() core.Network{
		// Single shared bus near saturation: deep queues, large blocked set.
		"SBUS": func() core.Network { return bus.New(16, 32) },
		// Crossbar with scarce resources: both path and resource blocking.
		"XBAR": func() core.Network { return crossbar.New(16, 8, 2) },
		// Multistage network: in-network rejects and path blocking the
		// availability register cannot see.
		"OMEGA": func() core.Network { return omega.New(16, 2) },
		// Partitioned system: per-partition Acquire delegation.
		"PART": func() core.Network {
			return core.NewPartitioned([]core.Network{
				bus.New(4, 2), bus.New(4, 2), bus.New(4, 2), bus.New(4, 2),
			})
		},
	}
}

// diffLambda picks a per-processor rate that keeps each configuration
// stable but heavily contended, so wakes routinely visit many waiters.
func diffLambda(name string) float64 {
	switch name {
	case "SBUS":
		return 0.11 // bus utilization ≈ 0.88 at μn=2
	case "XBAR":
		return 0.8 // resource intensity ≈ 0.8
	case "OMEGA":
		return 1.2 // heavy path contention
	case "PART":
		return 0.4 // per-partition bus utilization ≈ 0.8
	default:
		panic("unknown diff net " + name)
	}
}

// TestWakeEngineDifferential is the equivalence proof for the
// incremental wake engine: for every network class and seed, a run with
// the legacy full-rescan engine (runOracle's legacy mode) must produce a
// Result — metrics, telemetry, detail counters, and every raw delay
// sample — that renders byte-identically to the incremental engine's.
// Each label names the kernel's one wake order, index order, and its
// immediate (unjittered) retry, which keeps the names the rows had when
// the matrix also swept other wake orders and a retry jitter.
func TestWakeEngineDifferential(t *testing.T) {
	for name, mk := range diffNets() {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/index-order/jitter=0/seed=%d", name, seed), func(t *testing.T) {
				cfg := Config{
					Lambda: diffLambda(name), MuN: 2, MuS: 1,
					Seed: seed, Warmup: 50, Samples: 4000,
					CollectDelays: true,
				}
				want, err := runOracle(mk(), cfg, true, true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(mk(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				ws, gs := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got)
				if ws != gs {
					t.Errorf("incremental engine diverged from legacy:\nlegacy      %.400s\nincremental %.400s", ws, gs)
				}
			})
		}
	}
}

// TestWakeEngineDifferentialTrace extends the proof to the observable
// event stream: with a probe attached, the rendered trace bytes of the
// two engines must be identical — same grants, rejects, and timestamps
// in the same order.
func TestWakeEngineDifferentialTrace(t *testing.T) {
	for name, mk := range diffNets() {
		t.Run(name+"/index-order", func(t *testing.T) {
			render := func(legacy bool) []byte {
				tr := obs.NewTrace()
				cfg := Config{
					Lambda: diffLambda(name), MuN: 2, MuS: 1,
					Seed: 7, Warmup: 50, Samples: 1500,
					Probe: tr,
				}
				var err error
				if legacy {
					_, err = runOracle(mk(), cfg, true, true)
				} else {
					_, err = Run(mk(), cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := obs.WriteTraces(&buf, tr); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want, got := render(true), render(false)
			if !bytes.Equal(want, got) {
				t.Error("incremental engine produced different trace bytes than legacy")
			}
			if len(want) == 0 {
				t.Fatal("empty trace")
			}
		})
	}
}

// BenchmarkWakeEngines compares the legacy full-rescan wake against the
// incremental blocked-waiter engine in its target regime: large p, high
// resource intensity (ρ ≈ 0.85), where the legacy engine's O(p) scans
// on every release dominate the event loop. The legacy rows run the
// oracle kernel (runOracle), so they also include its older processor
// layout and binary heap.
func BenchmarkWakeEngines(b *testing.B) {
	// The package's test init forces invariant checks on, which adds an
	// O(p) recount per event to both engines and would mask the wake
	// engine's gain. Measure the production configuration.
	invariant.Enable(false)
	defer invariant.Enable(true)
	cases := []struct {
		name string
		mk   func() core.Network
		lam  float64
	}{
		// 64 processors on one bus at ≈0.9 bus utilization: nearly every
		// processor queues, so every release wakes a large waiter set.
		{"SBUS-p64", func() core.Network { return bus.New(64, 128) }, 0.9 * 1.0 / 64},
		// 64 and 128 processors on resource-scarce crossbars at ρ ≈ 0.85.
		{"XBAR-p64", func() core.Network { return crossbar.New(64, 8, 2) }, 0.85 * 16 / 64},
		{"XBAR-p128", func() core.Network { return crossbar.New(128, 16, 2) }, 0.85 * 32 / 128},
	}
	for _, c := range cases {
		for _, mode := range []string{"legacy", "incremental"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := Config{
						Lambda: c.lam, MuN: 4, MuS: 1,
						Seed: 1, Warmup: 100, Samples: 20000,
					}
					var err error
					if mode == "legacy" {
						_, err = runOracle(c.mk(), cfg, true, false)
					} else {
						_, err = Run(c.mk(), cfg)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// forwardingNet forwards core.Network, core.TelemetrySource and
// core.DetailSource to the network it wraps and nothing else, as a
// decorator that times or counts a network's calls does. Its concrete
// type hides the wrapped network's.
type forwardingNet struct{ core.Network }

func (f forwardingNet) Telemetry() core.Telemetry {
	return f.Network.(core.TelemetrySource).Telemetry()
}

func (f forwardingNet) DetailCounters() []core.NamedCounter {
	return f.Network.(core.DetailSource).DetailCounters()
}

// TestDecoratedPartitionKeepsWakeRange runs 64/4x16x16 OMEGA/1 and
// XBAR/1 bare and inside forwardingNet and requires identical Results,
// telemetry and detail counters included. The wake range rides on the
// grant, which the decorator forwards untouched; a kernel that took the
// range from the network's concrete type would wake every sub-network's
// waiters behind the decorator and count more attempts.
func TestDecoratedPartitionKeepsWakeRange(t *testing.T) {
	for _, c := range []struct {
		name string
		sub  func() core.Network
	}{
		{"OMEGA", func() core.Network { return omega.New(16, 1) }},
		{"XBAR", func() core.Network { return crossbar.New(16, 16, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() core.Network {
				subs := make([]core.Network, 4)
				for i := range subs {
					subs[i] = c.sub()
				}
				return core.NewPartitioned(subs)
			}
			cfg := Config{
				Lambda: queueing.LambdaForIntensity(0.8, 64, 2, 1, 64),
				MuN:    2, MuS: 1, Seed: 7, Warmup: 100, Samples: 20000,
			}
			bare, err := Run(mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := Run(forwardingNet{mk()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Telemetry.Failures == 0 {
				t.Fatal("no Acquire failed, so no release had waiters to wake")
			}
			if !reflect.DeepEqual(bare, wrapped) {
				t.Errorf("decorated run diverged:\nbare    %+v\nwrapped %+v", bare.Telemetry, wrapped.Telemetry)
			}
		})
	}
}
