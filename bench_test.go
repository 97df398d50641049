// Package rsin_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (go test -bench=. -benchmem),
// plus the ablation benches called out in DESIGN.md. Each BenchmarkFigN
// reports the figure's key series values as custom benchmark metrics so
// a run doubles as a regression record of the reproduced numbers.
package rsin_test

import (
	"fmt"
	"strings"
	"testing"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/experiments"
	"rsin/internal/markov"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
	"rsin/internal/shard"
	"rsin/internal/sim"
	"rsin/internal/workload"
)

// benchGrid is the ρ grid used by the benchmark harness: small enough
// to keep -bench runs quick, wide enough to span the paper's range.
func benchGrid() []float64 { return []float64{0.2, 0.5, 0.8} }

// benchNet parses and builds a configuration, failing the bench on
// error.
func benchNet(b *testing.B, s string, opt config.BuildOptions) core.Network {
	b.Helper()
	cfg, err := config.Parse(s)
	if err != nil {
		b.Fatal(err)
	}
	net, err := cfg.Build(opt)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchFig returns an unwrapper for (Figure, error) pairs that fails
// the bench on error. Usage: benchFig(b)(experiments.Fig7(...)).
func benchFig(b *testing.B) func(experiments.Figure, error) experiments.Figure {
	return func(fig experiments.Figure, err error) experiments.Figure {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return fig
	}
}

func benchQuality() experiments.Quality {
	return experiments.Quality{Samples: 50000, Warmup: 1000, Seed: 1}
}

// BenchmarkFig4 regenerates Fig. 4 (SBUS delays, μs/μn = 0.1, exact
// Markov analysis).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(benchGrid(), benchQuality())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/16x1x1 SBUS/2").At(0.5), "d·μs(SBUS/2,ρ=.5)")
			b.ReportMetric(fig.FindSeries("16/8x2x1 SBUS/4").At(0.5), "d·μs(8-part,ρ=.5)")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (SBUS delays, μs/μn = 1.0).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(benchGrid(), benchQuality())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/16x1x1 SBUS/2").At(0.5), "d·μs(SBUS/2,ρ=.5)")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (XBAR delays, μs/μn = 0.1,
// simulation).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := benchFig(b)(experiments.Fig7(benchGrid(), benchQuality()))
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/1x16x32 XBAR/1").At(0.5), "d·μs(XBAR/1,ρ=.5)")
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8 (XBAR delays, μs/μn = 1.0).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := benchFig(b)(experiments.Fig8(benchGrid(), benchQuality()))
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/1x16x32 XBAR/1").At(0.5), "d·μs(XBAR/1,ρ=.5)")
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12 (Omega delays, μs/μn = 0.1).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := benchFig(b)(experiments.Fig12(benchGrid(), benchQuality()))
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/1x16x16 OMEGA/2").At(0.5), "d·μs(16x16,ρ=.5)")
			b.ReportMetric(fig.FindSeries("16/8x2x2 OMEGA/2").At(0.5), "d·μs(8x2x2,ρ=.5)")
		}
	}
}

// BenchmarkFig13 regenerates Fig. 13 (Omega delays, μs/μn = 1.0).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := benchFig(b)(experiments.Fig13(benchGrid(), benchQuality()))
		if i == 0 {
			b.ReportMetric(fig.FindSeries("16/1x16x16 OMEGA/2").At(0.5), "d·μs(16x16,ρ=.5)")
		}
	}
}

// BenchmarkBlocking regenerates the Section V blocking-probability
// comparison (paper: ≈0.15 RSIN vs ≈0.3 address-mapped on 8×8).
func BenchmarkBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Blocking(8, 20000, 0.5, 0.5, 7)
		if i == 0 {
			b.ReportMetric(r.RSINBlocked, "P(block,RSIN)")
			b.ReportMetric(r.AddressBlocked, "P(block,addr)")
			b.ReportMetric(r.RSINBoxesPerGrant, "boxes/grant")
		}
	}
}

// BenchmarkCompare regenerates the Section VI cross-network comparison.
func BenchmarkCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := benchFig(b)(experiments.FigCompare(0.1, []float64{0.9}, benchQuality()))
		if i == 0 {
			b.ReportMetric(fig.Series[0].At(0.9), "d·μs(SBUS/3,ρ=.9)")
			b.ReportMetric(fig.FindSeries("16/4x4x4 OMEGA/2").At(0.9), "d·μs(OMEGA,ρ=.9)")
		}
	}
}

// BenchmarkTable2 regenerates Table II (trivial, kept for completeness
// of the per-artifact index).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.TableII(); len(rows) != 5 {
			b.Fatal("table II incomplete")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkOmegaReroutePolicy compares in-network rerouting against
// reject-to-source on the 16×16 Omega network at moderate load. It
// builds the network directly: config.Build always reroutes.
func BenchmarkOmegaReroutePolicy(b *testing.B) {
	run := func(b *testing.B, opts ...omega.Option) {
		lambda := queueing.LambdaForIntensity(0.6, 16, 1, 0.1, 32)
		for i := 0; i < b.N; i++ {
			net := omega.New(16, 2, opts...)
			res, err := sim.Run(net, sim.Config{
				Lambda: lambda, MuN: 1, MuS: 0.1, Seed: 1, Warmup: 1000, Samples: 50000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.NormalizedDelay.Mean, "d·μs")
				b.ReportMetric(float64(res.Telemetry.Rejects)/float64(res.Telemetry.Grants), "rejects/grant")
			}
		}
	}
	b.Run("reroute", func(b *testing.B) { run(b) })
	b.Run("no-reroute", func(b *testing.B) { run(b, omega.WithoutReroute()) })
}

// BenchmarkStatusStaleness compares live status propagation (assumption
// (c)) against frozen phase-1 status on batched requests: the
// stale-status batch routing triggers the paper's reject/reroute
// mechanism.
func BenchmarkStatusStaleness(b *testing.B) {
	pids := []int{0, 3, 4, 5}
	b.Run("live", func(b *testing.B) {
		rejects := int64(0)
		for i := 0; i < b.N; i++ {
			o := omega.New(8, 1)
			for j := 2; j < 6; j++ {
				o.SetResourceAvailability(j, 0)
			}
			for _, pid := range pids {
				o.Acquire(pid)
			}
			rejects += o.Telemetry().Rejects
		}
		b.ReportMetric(float64(rejects)/float64(b.N), "rejects/batch")
	})
	b.Run("stale", func(b *testing.B) {
		rejects := int64(0)
		for i := 0; i < b.N; i++ {
			o := omega.New(8, 1)
			for j := 2; j < 6; j++ {
				o.SetResourceAvailability(j, 0)
			}
			o.AcquireBatch(pids)
			rejects += o.Telemetry().Rejects
		}
		b.ReportMetric(float64(rejects)/float64(b.N), "rejects/batch")
	})
}

// BenchmarkWiringComparison compares the Omega and indirect-binary-
// n-cube wirings under identical load: isomorphic delta networks should
// perform identically for uniform traffic.
func BenchmarkWiringComparison(b *testing.B) {
	lambda := queueing.LambdaForIntensity(0.7, 16, 1, 0.1, 32)
	for _, s := range []string{"16/1x16x16 OMEGA/2", "16/1x16x16 CUBE/2"} {
		b.Run(s, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := benchNet(b, s, config.BuildOptions{})
				res, err := sim.Run(net, sim.Config{
					Lambda: lambda, MuN: 1, MuS: 0.1,
					Seed: 1, Warmup: 1000, Samples: 50000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.NormalizedDelay.Mean, "d·μs")
				}
			}
		})
	}
}

// BenchmarkMarkovSolverComparison compares the three SBUS chain solvers
// on the canonical private-bus chain (the cross-check of Section III).
func BenchmarkMarkovSolverComparison(b *testing.B) {
	p := markov.Params{P: 16, Lambda: 0.05, MuN: 1, MuS: 0.1, R: 32}
	b.Run("matrix-geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := markov.SolveMatrixGeometric(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("block-tridiagonal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := markov.SolveTruncated(p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paper-stages", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := markov.SolveStages(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCellWave measures the gate-level request-cycle evaluation of
// the full 16×32 cell array (the structural model behind Table I).
func BenchmarkCellWave(b *testing.B) {
	a := crossbar.NewCellArray(16, 32)
	req := make([]bool, 16)
	ctl := make([]bool, 32)
	for i := range req {
		req[i] = true
	}
	for j := range ctl {
		ctl[j] = true
	}
	reset := make([]bool, 16)
	for i := range reset {
		reset[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RequestCycle(req, ctl)
		a.ResetCycle(reset)
	}
}

// BenchmarkEngineThroughput measures raw simulator event throughput on
// the three network classes, at the moderate 16-processor ρ=0.5 point
// and at the large-p high-intensity points (ρ=0.8) where release-time
// wake scans dominate the event loop — the incremental blocked-waiter
// engine's target regime. The probe= rows re-run a small-p and a
// large-p point with a live attribution or series recorder attached,
// so BENCH_sim.json records the probe-on throughput alongside the
// nil-probe path. The case names feed the CI benchmark gate
// (cmd/bench and the probe-overhead check), so they must stay stable.
func BenchmarkEngineThroughput(b *testing.B) {
	cases := []struct {
		name   string // b.Run label; the first three predate the ρ suffix
		cfg    string
		rho    float64
		p, res int
		probe  string // "", "attr" or "series": observability recorder attached per run
	}{
		{"16/16x1x1 SBUS/2", "16/16x1x1 SBUS/2", 0.5, 16, 32, ""},
		{"16/1x16x16 XBAR/2", "16/1x16x16 XBAR/2", 0.5, 16, 32, ""},
		{"16/1x16x16 OMEGA/2", "16/1x16x16 OMEGA/2", 0.5, 16, 32, ""},
		{"64/1x64x64 XBAR/2 rho=0.8", "64/1x64x64 XBAR/2", 0.8, 64, 128, ""},
		{"64/1x64x64 OMEGA/1 rho=0.8", "64/1x64x64 OMEGA/1", 0.8, 64, 64, ""},
		{"128/1x128x128 XBAR/1 rho=0.8", "128/1x128x128 XBAR/1", 0.8, 128, 128, ""},
		// Large-p points: the SoA kernel's target regime, where the
		// timer tree holds thousands of armed slots. Omega networks
		// cap at 64×64, so the large omega rows are partitioned
		// clusters of 64-wide subnetworks.
		{"1024/1x1024x1024 XBAR/1 rho=0.8", "1024/1x1024x1024 XBAR/1", 0.8, 1024, 1024, ""},
		{"1024/16x64x64 OMEGA/1 rho=0.8", "1024/16x64x64 OMEGA/1", 0.8, 1024, 1024, ""},
		{"4096/64x64x64 XBAR/1 rho=0.8", "4096/64x64x64 XBAR/1", 0.8, 4096, 4096, ""},
		{"4096/64x64x64 OMEGA/1 rho=0.8", "4096/64x64x64 OMEGA/1", 0.8, 4096, 4096, ""},
		// Probe-on rows: same workloads with an attribution or series
		// recorder live, at both ends of the size range (p=16 and
		// p=4096).
		{"16/1x16x16 OMEGA/2 probe=attr", "16/1x16x16 OMEGA/2", 0.5, 16, 32, "attr"},
		{"16/1x16x16 OMEGA/2 probe=series", "16/1x16x16 OMEGA/2", 0.5, 16, 32, "series"},
		{"4096/64x64x64 XBAR/1 rho=0.8 probe=attr", "4096/64x64x64 XBAR/1", 0.8, 4096, 4096, "attr"},
		{"4096/64x64x64 XBAR/1 rho=0.8 probe=series", "4096/64x64x64 XBAR/1", 0.8, 4096, 4096, "series"},
	}
	for _, c := range cases {
		lambda := queueing.LambdaForIntensity(c.rho, c.p, 1, 0.1, c.res)
		mkProbe := func() obs.Probe {
			switch c.probe {
			case "attr":
				return obs.NewAttrRecorder(10)
			case "series":
				s := obs.NewSeriesRecorder(c.p, 1)
				s.Reserve(4096)
				return s
			}
			return nil
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := benchNet(b, c.cfg, config.BuildOptions{})
				if _, err := sim.Run(net, sim.Config{
					Lambda: lambda, MuN: 1, MuS: 0.1, Seed: 1, Warmup: 100, Samples: 20000,
					Probe: mkProbe(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedRun compares the sharded orchestrator (internal/
// shard) against the classic monolithic event loop on the large-p
// partitioned configurations: one p=4096 system of 64 independent
// 64-wide sub-networks, run as a single 4096-processor event loop
// (classic) and as 64 sub-simulations batched into 8 jobs (shards=8).
// The sharded rows win even single-threaded — 64 small event loops are
// cheaper than one huge one (shorter pending queues) — and
// additionally parallelize across cores. The sample budget
// (Samples=64000, BatchSize=1000) is chosen so the whole-batch quotas
// deal exactly one batch to each sub-network: both estimators collect
// exactly 64000 samples, making the wall-clock ratio a same-work
// comparison. The case names feed the CI benchmark gate (cmd/bench),
// so they must stay stable.
func BenchmarkShardedRun(b *testing.B) {
	cases := []struct {
		name   string
		cfg    string
		shards int // 0 = classic monolithic sim.Run
	}{
		{"4096/64x64x64 XBAR/1 rho=0.8 classic", "4096/64x64x64 XBAR/1", 0},
		{"4096/64x64x64 XBAR/1 rho=0.8 shards=8", "4096/64x64x64 XBAR/1", 8},
		{"4096/64x64x64 OMEGA/1 rho=0.8 classic", "4096/64x64x64 OMEGA/1", 0},
		{"4096/64x64x64 OMEGA/1 rho=0.8 shards=8", "4096/64x64x64 OMEGA/1", 8},
	}
	lambda := queueing.LambdaForIntensity(0.8, 4096, 1, 0.1, 4096)
	simCfg := sim.Config{Lambda: lambda, MuN: 1, MuS: 0.1, Seed: 1, Warmup: 100, Samples: 64000, BatchSize: 1000}
	for _, c := range cases {
		cfg, err := config.Parse(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.shards == 0 {
					net := benchNet(b, c.cfg, config.BuildOptions{})
					if _, err := sim.Run(net, simCfg); err != nil {
						b.Fatal(err)
					}
				} else if _, err := shard.Run(shard.Config{
					Net: cfg, Sim: simCfg, Shards: c.shards,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSweep measures the parallel runner's speedup on a
// 4-point Full-quality sweep of one crossbar configuration: the same
// sweep at workers=1 and workers=4. On a ≥4-core machine the
// workers=4 run should finish at least ~2× faster; the benchmark also
// asserts that the rendered CSV is byte-identical across worker
// counts — the runner's determinism contract (run with
// `go test -bench ParallelSweep -benchtime 1x`).
func BenchmarkParallelSweep(b *testing.B) {
	grid := []float64{0.2, 0.4, 0.6, 0.8}
	cfg, err := config.Parse("16/1x16x16 OMEGA/2")
	if err != nil {
		b.Fatal(err)
	}
	render := func(workers int) string {
		q := experiments.Full()
		q.Workers = workers
		s, err := experiments.Sweep(cfg, 0.1, grid, q)
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		fig := experiments.Figure{ID: "bench", XLabel: "rho", Series: []experiments.Series{s}}
		if err := fig.RenderCSV(&sb); err != nil {
			b.Fatal(err)
		}
		return sb.String()
	}
	var ref string
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csv := render(workers)
				if ref == "" {
					ref = csv
				} else if csv != ref {
					b.Fatal("CSV output differs across worker counts or runs")
				}
			}
		})
	}
}

// BenchmarkSweepMachinery exercises the ρ→λ sweep conversion used by
// every figure.
func BenchmarkSweepMachinery(b *testing.B) {
	rhos := workload.PaperRhoGrid()
	for i := 0; i < b.N; i++ {
		pts := workload.Sweep(16, 1, 0.1, 32, rhos)
		if len(pts) != len(rhos) {
			b.Fatal("sweep lost points")
		}
	}
}
