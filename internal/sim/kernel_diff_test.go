package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
)

// This file is the kernel differential matrix: the acceptance proof for
// the SoA + arena + calendar-queue refactor. For every network class ×
// processor count × traffic intensity cell it runs three kernels over
// the same workload —
//
//   - runOracle: the frozen pre-refactor kernel (AoS procs, binary heap),
//   - run on an eventHeap: the SoA kernel on the binary heap,
//   - run on a calendarQueue: the SoA kernel on the calendar queue,
//
// and requires the rendered Result (every metric, telemetry counter,
// and raw delay sample) and the rendered obs trace bytes (every grant,
// reject, and timestamp, in order) to be identical across all three.
// Result equality pins the SoA/arena rewrite; trace equality pins event
// ordering, including (time, seq) ties, which is exactly where a
// calendar queue can silently diverge from a heap.

// kernelDiffNet is one network class instantiated for a given p.
type kernelDiffNet struct {
	name string
	mk   func() core.Network
}

// kernelDiffNets builds the four network classes of the paper scaled to
// p processors. Omega networks are limited to power-of-two sizes up to
// 64, so the large-p OMEGA rows are partitioned clusters of 64-wide
// subnetworks — which is also the only configuration the figures use
// past p=64.
func kernelDiffNets(p int) []kernelDiffNet {
	nets := []kernelDiffNet{
		// Single shared bus, resource-rich: queueing is all path blocking.
		{"SBUS", func() core.Network { return bus.New(p, 2*p) }},
		// Crossbar with one resource per port and half as many ports as
		// processors: path and resource blocking both active.
		{"XBAR", func() core.Network { return crossbar.New(p, p/2, 1) }},
		// Four equal bus partitions: per-partition hint delegation.
		{"PART", func() core.Network {
			subs := make([]core.Network, 4)
			for i := range subs {
				subs[i] = bus.New(p/4, p/2)
			}
			return core.NewPartitioned(subs)
		}},
	}
	if p <= 64 {
		nets = append(nets, kernelDiffNet{"OMEGA", func() core.Network {
			return omega.New(p, 2)
		}})
	} else {
		nets = append(nets, kernelDiffNet{"OMEGA", func() core.Network {
			subs := make([]core.Network, p/64)
			for i := range subs {
				subs[i] = omega.New(64, 2)
			}
			return core.NewPartitioned(subs)
		}})
	}
	return nets
}

// kernelDiffSamples scales the per-cell sample count down with p so the
// full 4×4×3 matrix stays inside a test-suite time budget; -short
// quarters it again for the CI quick gate.
func kernelDiffSamples(p int, short bool) int {
	var n int
	switch {
	case p <= 16:
		n = 4000
	case p <= 64:
		n = 2000
	case p <= 256:
		n = 1000
	default:
		n = 400
	}
	if short {
		n /= 4
	}
	return n
}

// runKernelDiffCell runs one matrix cell through all three kernels and
// fails the test on any Result or trace divergence.
func runKernelDiffCell(t *testing.T, mk func() core.Network, lambda float64, samples int) {
	t.Helper()
	render := func(kernel string) (string, []byte) {
		tr := obs.NewTrace()
		cfg := Config{
			Lambda: lambda, MuN: 2, MuS: 1,
			Seed: 11, Warmup: 50,
			Samples:       samples,
			CollectDelays: true,
			Probe:         tr,
		}
		var (
			res Result
			err error
		)
		switch kernel {
		case "oracle":
			res, err = runOracle(mk(), cfg, false, true)
		case "heap":
			res, err = run(mk(), cfg, &eventHeap{})
		case "calendar":
			res, err = run(mk(), cfg, newCalendarQueue())
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraces(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res), buf.Bytes()
	}
	wantRes, wantTrace := render("oracle")
	for _, kernel := range []string{"heap", "calendar"} {
		gotRes, gotTrace := render(kernel)
		if gotRes != wantRes {
			t.Errorf("%s kernel Result diverged from oracle:\noracle %.400s\ngot    %.400s",
				kernel, wantRes, gotRes)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%s kernel trace bytes diverged from oracle (%d vs %d bytes)",
				kernel, len(gotTrace), len(wantTrace))
		}
	}
	if len(wantTrace) == 0 {
		t.Fatal("oracle produced an empty trace")
	}
}

// TestKernelDifferential sweeps the full matrix. Invariant checks stay
// on for the p=16 cells (where the O(p)-per-event recount is cheap), so
// every structure is pinned once under instrumentation; larger p runs
// the production configuration, where the recounts would dominate the
// suite's time budget without adding coverage the small cells lack.
func TestKernelDifferential(t *testing.T) {
	ps := []int{16, 64, 256, 1024}
	if testing.Short() {
		ps = []int{16, 64, 256}
	}
	for _, p := range ps {
		for _, net := range kernelDiffNets(p) {
			for _, rho := range []float64{0.3, 0.8, 0.95} {
				label := fmt.Sprintf("%s/p=%d/rho=%g", net.name, p, rho)
				t.Run(label, func(t *testing.T) {
					if p > 16 {
						invariant.Enable(false)
						defer invariant.Enable(true)
					}
					samples := kernelDiffSamples(p, testing.Short())
					if net.name == "OMEGA" && p > 64 && rho > 0.9 {
						// Past its effective saturation point the omega
						// cluster retry-storms: events (and trace bytes)
						// per sample grow by over two orders of magnitude,
						// so even 8 samples exercise hundreds of thousands
						// of event-order decisions. Identity, not
						// statistics, is what the cell proves.
						samples = 8
					}
					lambda := queueing.LambdaForIntensity(rho, p, 2, 1, mkTotalRes(net.mk))
					runKernelDiffCell(t, net.mk, lambda, samples)
				})
			}
		}
	}
}

// TestPeersOnlyWakeMatchesFullRescan pins what waking only the
// released grant's core.Peers range may change, against the unfiltered
// frozen oracle, whose every release re-probes the waiters of every
// sub-network. On a partitioned network the Result with Telemetry and
// Details cleared must be byte-identical, raw delay samples included,
// and the trace must be the oracle's with some reject instants removed
// and nothing else changed. On an unpartitioned network Result and
// trace must be identical in full.
func TestPeersOnlyWakeMatchesFullRescan(t *testing.T) {
	type row struct {
		name string
		mk   func() core.Network
		cfg  Config
	}
	// The short matrix's sample counts keep the test cheap under -race;
	// identity, not statistics, is what each row proves.
	var rows []row
	for _, p := range []int{16, 64, 256} {
		for _, net := range kernelDiffNets(p) {
			rows = append(rows, row{fmt.Sprintf("%s/p=%d", net.name, p), net.mk, Config{
				Lambda: queueing.LambdaForIntensity(0.8, p, 2, 1, mkTotalRes(net.mk)),
				MuN:    2, MuS: 1, Seed: 11, Warmup: 50,
				Samples: kernelDiffSamples(p, true),
			}})
		}
	}
	rows = append(rows, row{"golden-p256", goldenNet, goldenConfig()})
	for _, r := range rows {
		_, partitioned := r.mk().(*core.Partitioned)
		for _, pol := range []WakePolicy{WakeIndexOrder, WakeRandom, WakeRoundRobin} {
			t.Run(r.name+"/"+pol.String(), func(t *testing.T) {
				if r.mk().Processors() > 16 {
					invariant.Enable(false)
					defer invariant.Enable(true)
				}
				render := func(oracle bool) (Result, []string) {
					tr := obs.NewTrace()
					cfg := r.cfg
					cfg.WakePolicy, cfg.CollectDelays, cfg.Probe = pol, true, tr
					var (
						res Result
						err error
					)
					if oracle {
						res, err = runOracle(r.mk(), cfg, false, false)
					} else {
						res, err = Run(r.mk(), cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := obs.WriteTraces(&buf, tr); err != nil {
						t.Fatal(err)
					}
					lines := strings.Split(buf.String(), "\n")
					for i, l := range lines {
						lines[i] = strings.TrimSuffix(l, ",") // the last event has no separator
					}
					return res, lines
				}
				wantRes, wantTrace := render(true)
				gotRes, gotTrace := render(false)
				if partitioned {
					wantRes.Telemetry, wantRes.Details = core.Telemetry{}, nil
					gotRes.Telemetry, gotRes.Details = core.Telemetry{}, nil
				}
				if w, g := fmt.Sprintf("%+v", wantRes), fmt.Sprintf("%+v", gotRes); w != g {
					t.Errorf("Result diverged from the unfiltered oracle:\noracle %.400s\ngot    %.400s", w, g)
				}
				// Match the traces greedily; every oracle line left over
				// must be a reject instant, and only when partitioned.
				i, dropped := 0, 0
				for _, l := range wantTrace {
					if i < len(gotTrace) && gotTrace[i] == l {
						i++
						continue
					}
					if !partitioned || !strings.HasPrefix(l, `{"name":"reject",`) {
						t.Fatalf("oracle trace line %q missing from Run's trace (after %d matched lines)", l, i)
					}
					dropped++
				}
				if i != len(gotTrace) {
					t.Fatalf("Run's trace has %d lines the oracle's lacks, from %q", len(gotTrace)-i, gotTrace[i])
				}
				t.Logf("%d trace lines, %d oracle reject instants dropped", len(gotTrace), dropped)
			})
		}
	}
}

// mkTotalRes instantiates a network once just to read its resource
// count for the intensity → λ conversion.
func mkTotalRes(mk func() core.Network) int { return mk().TotalResources() }
