// Command rsinsim simulates a single RSIN configuration at one
// operating point and prints the measured queueing delay, utilization,
// and blockage telemetry.
//
// Usage:
//
//	rsinsim -config "16/1x16x16 OMEGA/2" -ratio 0.1 -rho 0.5
//	rsinsim -config "16/16x1x1 SBUS/2" -ratio 0.1 -rho 0.5 -analytic
//	rsinsim -config "16/4x4x4 XBAR/2" -rho 0.6 -reps 8 -workers 4
//
// The operating point can be given either as the paper's traffic
// intensity (-rho, relative to the 16-processor/32-resource reference
// system) or directly as a per-processor arrival rate (-lambda).
//
// With -reps R > 1, R independent replications run in parallel across
// -workers goroutines, each on its own derived random stream
// (runner.DeriveSeed), and the pooled estimate is reported alongside
// the per-replication means. The output is bit-for-bit identical for
// any -workers value. Replication r simulates on DeriveSeed(seed, 0,
// 2r); the odd slots once seeded the networks, which draw no random
// numbers, and stay unused so every replication keeps its stream.
//
// With -shards S > 0, the configuration's i independent sub-networks
// (requests never cross a partition) run as a sharded simulation: each
// sub-network simulates on its own stream derived on the shard axis
// (runner.DeriveShardSeed) and the per-sub results — and any
// -trace/-attr/-series recorders — merge deterministically in
// ascending sub-network order (internal/shard, the obs shard merges).
// S only batches sub-networks into runner jobs, so stdout and every
// observability file are byte-identical for any -shards and -workers
// combination. Replication r of a sharded run derives its base seed as
// DeriveSeed(seed, 0, r); sharding is a different estimator from the
// classic single event loop (see internal/shard), so sharded and
// unsharded runs agree statistically, not bitwise.
//
// Observability (see internal/obs): -trace writes a Chrome trace_event
// JSON of the simulated request lifecycle (openable in Perfetto or
// chrome://tracing), -attr writes per-replication latency-attribution
// reports (per-phase wait/block/tx/svc histograms, slowest requests,
// blocking breakdown; rsin-attr-set/1), -series writes simulated-time
// series of queue length, busy resources and blocked waiters sampled
// every -series-dt time units (rsin-series-set/1), and
// -cpuprofile/-memprofile write pprof profiles. All simulated-time
// files are keyed by simulated time only, so they are byte-identical
// for any -workers value, exactly like stdout. Inspect the attr and
// series files with cmd/rsintrace.
//
// -analytic prints the exact Markov solution of an SBUS configuration
// instead of simulating it, so it rejects the flags that only a
// simulation uses: -trace, -attr, -series, -shards and -reps above 1.
//
// Invalid flag values, unsupported flag combinations and malformed
// configurations are rejected with a one-line error on stderr and exit
// status 1, before any profile starts. A later failure (a run that
// fails, a file that cannot be written) also exits 1 with one line,
// after stopping the profiles, so -cpuprofile still holds a valid
// profile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"rsin/internal/config"
	"rsin/internal/invariant"
	"rsin/internal/markov"
	"rsin/internal/obs"
	"rsin/internal/queueing"
	"rsin/internal/runner"
	"rsin/internal/shard"
	"rsin/internal/sim"
	"rsin/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rsinsim:", err)
		os.Exit(1)
	}
}

// run validates the command line, then starts the profiles and runs
// the command. Every failure returns its error, so the deferred profile
// writers run on error exits too.
func run() error {
	var (
		cfgStr   = flag.String("config", "16/1x16x16 OMEGA/2", "system configuration in p/ixjxk NET/r notation")
		ratio    = flag.Float64("ratio", 0.1, "μs/μn ratio (transmission rate μn is fixed at 1)")
		rho      = flag.Float64("rho", 0.5, "traffic intensity of the 16/32 reference system")
		lambda   = flag.Float64("lambda", 0, "per-processor arrival rate (overrides -rho if > 0)")
		samples  = flag.Int("samples", 200000, "post-warmup delay samples")
		warmup   = flag.Float64("warmup", 2000, "warmup period (simulated time)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		reps     = flag.Int("reps", 1, "independent replications, pooled into one estimate")
		workers  = flag.Int("workers", 0, "worker goroutines for replications (0 = all CPUs)")
		shards   = flag.Int("shards", 0, "run the independent sub-networks as a sharded simulation batched into this many jobs, merged deterministically (0 = classic single event loop; output is byte-identical for any positive value)")
		analytic = flag.Bool("analytic", false, "use the exact Markov analysis (SBUS configurations only)")
		check    = flag.Bool("check", false, "enable runtime model-invariant checks (see internal/invariant)")

		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the simulated lifecycle to this file (open in Perfetto; byte-identical for any -workers value)")
		attrOut    = flag.String("attr", "", "write per-replication latency-attribution reports (rsin-attr-set/1 JSON) to this file")
		attrTopK   = flag.Int("attr-topk", 10, "slowest requests kept per replication in the -attr report")
		seriesOut  = flag.String("series", "", "write per-replication simulated-time series (rsin-series-set/1 JSON) to this file")
		seriesDt   = flag.Float64("series-dt", 1, "simulated-time grid step for -series samples")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := parseFlags(); err != nil {
		return err
	}
	if *check {
		invariant.Enable(true)
	}
	if !(*seriesDt > 0) || math.IsInf(*seriesDt, 0) {
		return fmt.Errorf("-series-dt must be positive and finite (got %g)", *seriesDt)
	}
	if !(*ratio > 0) || math.IsInf(*ratio, 0) {
		return fmt.Errorf("-ratio must be positive and finite (got %g)", *ratio)
	}
	if math.IsNaN(*rho) || math.IsInf(*rho, 0) {
		return fmt.Errorf("-rho must be finite (got %g)", *rho)
	}
	if math.IsNaN(*lambda) || math.IsInf(*lambda, 0) {
		return fmt.Errorf("-lambda must be finite (got %g)", *lambda)
	}
	if math.IsNaN(*warmup) || math.IsInf(*warmup, 0) {
		return fmt.Errorf("-warmup must be finite (got %g)", *warmup)
	}
	if *samples < 1 {
		return fmt.Errorf("-samples must be at least 1 (got %d)", *samples)
	}
	if *attrTopK < 0 {
		return fmt.Errorf("-attr-topk must be non-negative (got %d)", *attrTopK)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative (got %d)", *shards)
	}
	if *analytic {
		// The exact Markov path prints one solution: there is no
		// simulated run to record, shard or replicate.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-trace", *traceOut != ""},
			{"-attr", *attrOut != ""},
			{"-series", *seriesOut != ""},
			{"-shards", *shards > 0},
			{"-reps", *reps > 1},
		} {
			if f.set {
				return fmt.Errorf("%s is not supported with -analytic: the exact Markov solution runs no simulation", f.name)
			}
		}
	}
	cfg, err := config.Parse(*cfgStr)
	if err != nil {
		return err
	}
	if *analytic && cfg.Type != config.SBUS {
		return fmt.Errorf("-analytic supports SBUS configurations only (got %s)", cfg.Type)
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "rsinsim:", err)
			}
		}()
	}

	muN := 1.0
	muS := *ratio * muN
	lam := *lambda
	if lam <= 0 {
		lam = queueing.LambdaForIntensity(*rho, 16, muN, muS, 32)
	}
	effRho := queueing.TrafficIntensity(cfg.Processors, lam, muN, muS, cfg.TotalResources())
	fmt.Printf("configuration: %s  (%d processors, %d ports, %d resources)\n",
		cfg, cfg.Processors, cfg.Networks*cfg.Outputs, cfg.TotalResources())
	fmt.Printf("rates: λ=%.6g per processor, μn=%g, μs=%g (μs/μn=%g)\n", lam, muN, muS, *ratio)
	fmt.Printf("traffic intensity: %.4g (own-system), %.4g (16/32 reference)\n",
		effRho, queueing.TrafficIntensity(16, lam, muN, muS, 32))

	if *analytic {
		res, err := markov.SolveMatrixGeometric(markov.Params{
			P: cfg.Inputs, Lambda: lam, MuN: muN, MuS: muS, R: cfg.PerPort,
		})
		if err != nil {
			return err
		}
		fmt.Printf("analytic delay d        : %.6g\n", res.Delay)
		fmt.Printf("normalized delay d·μs   : %.6g\n", res.NormalizedDelay)
		fmt.Printf("bus utilization         : %.4g\n", invariant.MustProbability("markov", "bus utilization", res.BusUtilization))
		fmt.Printf("resource utilization    : %.4g\n", invariant.MustProbability("markov", "resource utilization", res.ResourceUtil))
		fmt.Printf("P(all resources busy)   : %.4g\n", invariant.MustProbability("markov", "P(all busy)", res.PAllBusy))
		return nil
	}

	if *reps < 1 {
		*reps = 1
	}
	sw := obs.NewStopwatch()
	// Per-replication observers: each replication owns its probe (in
	// sharded mode, one probe per sub-network, merged after the run), so
	// parallel reps never share mutable state; the exporters below merge
	// them in replication order, keeping the files byte-identical for
	// any -workers value.
	var traces []*obs.Trace
	if *traceOut != "" {
		traces = make([]*obs.Trace, *reps)
	}
	var attrs []*obs.AttrRecorder
	if *attrOut != "" {
		attrs = make([]*obs.AttrRecorder, *reps)
	}
	var seriesRecs []*obs.SeriesRecorder
	var seriesMerged []obs.Series
	type repOut struct {
		res sim.Result
		err error
	}
	var outs []repOut
	if *shards > 0 {
		if *seriesOut != "" {
			seriesMerged = make([]obs.Series, *reps)
		}
		outs = make([]repOut, *reps)
		// Replications run sequentially; each one parallelizes over its
		// sub-network jobs on -workers goroutines.
		for r := range outs {
			shcfg := shard.Config{
				Net: cfg,
				Sim: sim.Config{
					Lambda: lam, MuN: muN, MuS: muS,
					Seed:   runner.DeriveSeed(*seed, 0, r),
					Warmup: *warmup, Samples: *samples,
				},
				Shards:  *shards,
				Workers: *workers,
			}
			subs := cfg.Networks
			var subTraces []*obs.Trace
			var subAttrs []*obs.AttrRecorder
			var subSeries []*obs.SeriesRecorder
			if traces != nil {
				subTraces = make([]*obs.Trace, subs)
			}
			if attrs != nil {
				subAttrs = make([]*obs.AttrRecorder, subs)
			}
			if seriesMerged != nil {
				subSeries = make([]*obs.SeriesRecorder, subs)
			}
			if subTraces != nil || subAttrs != nil || subSeries != nil {
				shcfg.Probe = func(s int) obs.Probe {
					var p obs.Probe
					if subTraces != nil {
						subTraces[s] = obs.NewTrace()
						p = subTraces[s]
					}
					if subAttrs != nil {
						subAttrs[s] = obs.NewAttrRecorder(*attrTopK)
						p = obs.Multi(p, subAttrs[s])
					}
					if subSeries != nil {
						subSeries[s] = obs.NewSeriesRecorder(cfg.Inputs, *seriesDt)
						p = obs.Multi(p, subSeries[s])
					}
					return p
				}
			}
			plan, results, err := shard.RunSubs(shcfg)
			if err != nil {
				return err
			}
			res, err := shard.Merge(plan, muS, results)
			if err != nil {
				return err
			}
			outs[r] = repOut{res: res}
			if subTraces != nil {
				traces[r] = obs.MergeShardTraces(subTraces, plan.PidOff, plan.PortOff)
			}
			if subAttrs != nil {
				m := obs.NewAttrRecorder(*attrTopK)
				for s, a := range subAttrs {
					m.Merge(a, s, plan.PidOff[s], plan.PortOff[s])
				}
				attrs[r] = m
			}
			if subSeries != nil {
				runs := make([]obs.Series, subs)
				for s, sr := range subSeries {
					runs[s] = sr.Finish(fmt.Sprintf("sub%02d", s), results[s].SimTime)
				}
				merged, err := obs.MergeSeries(repLabel(cfg.String(), r), runs)
				if err != nil {
					return err
				}
				seriesMerged[r] = merged
			}
		}
	} else {
		for r := range traces {
			traces[r] = obs.NewTrace()
		}
		for r := range attrs {
			attrs[r] = obs.NewAttrRecorder(*attrTopK)
		}
		if *seriesOut != "" {
			seriesRecs = make([]*obs.SeriesRecorder, *reps)
			for r := range seriesRecs {
				seriesRecs[r] = obs.NewSeriesRecorder(cfg.Processors, *seriesDt)
			}
		}
		outs = runner.Map(runner.Options{Workers: *workers}, *reps, func(r int) repOut {
			net, err := cfg.Build(config.BuildOptions{})
			if err != nil {
				return repOut{err: err}
			}
			var probe obs.Probe
			if traces != nil {
				probe = traces[r]
			}
			if attrs != nil {
				probe = obs.Multi(probe, attrs[r])
			}
			if seriesRecs != nil {
				probe = obs.Multi(probe, seriesRecs[r])
			}
			res, err := sim.Run(net, sim.Config{
				Lambda: lam, MuN: muN, MuS: muS,
				Seed: runner.DeriveSeed(*seed, 0, 2*r), Warmup: *warmup, Samples: *samples,
				Probe: probe,
			})
			return repOut{res: res, err: err}
		})
	}
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
	}
	res := outs[0].res
	if *traceOut != "" {
		// Replication r is trace process r.
		if err := writeObsFile(*traceOut, func(f *os.File) error {
			return obs.WriteTraces(f, traces...)
		}); err != nil {
			return err
		}
	}
	if *attrOut != "" {
		atts := make([]obs.Attribution, *reps)
		for r := range atts {
			atts[r] = attrs[r].Report(repLabel(cfg.String(), r), sim.BlockingRows(outs[r].res))
		}
		if err := writeObsFile(*attrOut, func(f *os.File) error {
			return obs.WriteAttributions(f, atts)
		}); err != nil {
			return err
		}
	}
	if *seriesOut != "" {
		series := make([]obs.Series, *reps)
		for r := range series {
			if seriesMerged != nil {
				series[r] = seriesMerged[r]
			} else {
				series[r] = seriesRecs[r].Finish(repLabel(cfg.String(), r), outs[r].res.SimTime)
			}
		}
		if err := writeObsFile(*seriesOut, func(f *os.File) error {
			return obs.WriteSeries(f, series)
		}); err != nil {
			return err
		}
	}
	fmt.Printf("wall-clock              : %s\n", sw.Elapsed().Round(time.Millisecond))
	if *reps > 1 {
		fmt.Printf("replications            : %d\n", *reps)
		var sum, hw2 float64
		for r, o := range outs {
			fmt.Printf("  rep %-2d delay d        : %s\n", r, o.res.Delay)
			sum += o.res.Delay.Mean
			hw2 += o.res.Delay.HalfWide * o.res.Delay.HalfWide
		}
		n := float64(*reps)
		pooled := stats.CI{Mean: sum / n, HalfWide: math.Sqrt(hw2) / n, N: int64(*reps) * res.Delay.N}
		fmt.Printf("pooled delay d          : %s\n", pooled)
		fmt.Printf("pooled normalized d·μs  : %s\n",
			stats.CI{Mean: pooled.Mean * muS, HalfWide: pooled.HalfWide * muS, N: pooled.N})
		return nil
	}
	fmt.Printf("simulated delay d       : %s\n", res.Delay)
	fmt.Printf("normalized delay d·μs   : %s\n", res.NormalizedDelay)
	fmt.Printf("mean queue length       : %.4g\n", res.MeanQueue)
	fmt.Printf("port utilization        : %.4g\n", invariant.MustProbability("sim", "port utilization", res.Utilization))
	fmt.Printf("tasks completed         : %d over %.4g time units\n", res.Completed, res.SimTime)
	tel := res.Telemetry
	if tel.Attempts > 0 {
		fmt.Printf("allocation attempts     : %d (%.2f%% blocked: %d resource, %d path)\n",
			tel.Attempts, 100*float64(tel.Failures)/float64(tel.Attempts),
			tel.ResourceBlock, tel.PathBlock)
	}
	if tel.Grants > 0 && tel.BoxVisits > 0 {
		fmt.Printf("interchange box visits  : %.3f per grant (%d rejects)\n",
			float64(tel.BoxVisits)/float64(tel.Grants), tel.Rejects)
	}
	return nil
}

// parseFlags parses the command line. A bad flag is returned and
// reported like every other invalid invocation, on one line, instead of
// the flag package's message followed by the whole flag list; -h still
// prints the list.
func parseFlags() error {
	flag.CommandLine.Init("rsinsim", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	}
	return err
}

// writeObsFile creates path and runs the given writer against it.
func writeObsFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repLabel names one replication's report.
func repLabel(cfg string, r int) string {
	return fmt.Sprintf("%s rep=%d", cfg, r)
}
