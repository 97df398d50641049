// Package shard runs one large partitioned configuration as a set of
// independent per-sub-network simulations and deterministically merges
// their results. The paper's p/i×j×k notation composes i sub-networks
// that never exchange requests (core.Partitioned), so a partitioned
// system factors exactly: each sub-network is a closed simulation of j
// processors, and the system-level metrics are algebraic combinations
// of the per-sub metrics.
//
// # Decomposition and determinism
//
// The decomposition unit is always one sub-network — the finest grain
// the model admits. Sub-network s draws its randomness from
// runner.DeriveShardSeed(Sim.Seed, s, 0), a stream keyed only by the
// base seed and s, and receives a fixed whole-batch sample quota — so
// its Result is a pure function of the configuration and s.
//
// The Shards knob only controls how many runner.Map jobs the
// sub-networks are batched into: contiguous ranges, executed in
// ascending order within each job. Because per-sub seeds, quotas, and
// the merge order are all independent of the grouping, the merged
// output is byte-identical for every Shards and Workers value — that
// invariance is pinned by the differential tests in this package and
// the CI cmp job.
//
// # Canonical merge order
//
// The merge folds per-sub results in ascending sub-network order.
// Floating-point accumulator merges are order-sensitive (see
// stats.Welford.Merge and TestWelfordMergeOrderChangesBits), so the
// order is part of the contract, not an implementation detail:
// changing it changes the low bits of the merged estimates.
//
// # Relation to the single-event-loop estimator
//
// A sharded run is a different estimator from the classic monolithic
// sim.Run of the same partitioned config, not a bit-identical
// reimplementation: the monolithic run threads one RNG stream and one
// global sample-count stop condition through all partitions, coupling
// them, while shards are fully decorrelated and self-terminating. The
// two agree statistically (their confidence intervals cover each
// other; pinned by a statistical-agreement test), and "monolithic" in
// the byte-identity contract means the sharded orchestrator at
// Shards=1.
package shard

import (
	"fmt"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/runner"
	"rsin/internal/sim"
	"rsin/internal/stats"
)

// Config parameterizes one sharded run.
type Config struct {
	// Net is the full partitioned system description; Net.Networks is
	// the number of independent sub-networks (the decomposition units).
	Net config.Config

	// Sim is the template simulation config. Seed is the base of every
	// derived stream; Samples is the system-wide sample target, split
	// into whole batches across sub-networks; Lambdas, when set, must
	// cover all Net.Processors processors and is sliced per sub-network.
	// Probe and ExportAccumulators must be unset — per-sub probes are
	// attached through the Probe factory below.
	Sim sim.Config

	// Shards is the number of runner.Map jobs the sub-networks are
	// batched into, clamped to [1, Net.Networks]; non-positive means
	// one job per sub-network. It tunes scheduling granularity only:
	// results are byte-identical for every value.
	Shards int

	// Workers is the runner.Map worker count (non-positive: NumCPU).
	// Results are byte-identical for every value.
	Workers int

	// Probe, when non-nil, supplies sub-network s's observability probe
	// (obs recorders). The caller keeps the recorders and merges them
	// afterwards with the obs shard merges, using the plan's offsets.
	// The factory is called once per sub-network, in ascending order,
	// before any job runs — so factory-side state needs no locking.
	Probe func(sub int) obs.Probe
}

// Plan is the deterministic decomposition of one sharded run: the
// per-sub sample quotas, the job grouping, and the namespace offsets
// that lift per-sub processor/port ids into the global system.
type Plan struct {
	Subs      int           // number of sub-networks (decomposition units)
	SubNet    config.Config // single-sub-network configuration (Networks = 1)
	BatchSize int           // global batch size b shared by every sub
	Batches   []int         // whole-batch quota per sub; sub s collects Batches[s]·b samples
	Groups    [][2]int      // [start, end) sub ranges, one per runner.Map job
	PidOff    []int         // global processor-id offset of each sub
	PortOff   []int         // global port-id offset of each sub
}

// BuildPlan validates cfg and computes its decomposition.
//
// Sample quotas are whole batches on purpose: BatchMeans.Merge is exact
// when every merged accumulator sits on a batch boundary, so the global
// batch size b (Sim.BatchSize, defaulting to Samples/30 as in sim.Run)
// is fixed first and Samples/b batches are dealt round-robin to the
// subs, at least one each. The realized total sample count is the
// quota sum — Samples rounded to whole batches, never less than one
// batch per sub.
func BuildPlan(cfg Config) (Plan, error) {
	if err := cfg.Net.Validate(); err != nil {
		return Plan{}, err
	}
	if cfg.Sim.Probe != nil || cfg.Sim.ExportAccumulators {
		return Plan{}, fmt.Errorf("shard: Sim.Probe and Sim.ExportAccumulators must be unset (use Config.Probe)")
	}
	if cfg.Sim.Lambdas != nil && len(cfg.Sim.Lambdas) != cfg.Net.Processors {
		return Plan{}, fmt.Errorf("shard: Lambdas has %d entries for %d processors", len(cfg.Sim.Lambdas), cfg.Net.Processors)
	}
	subs := cfg.Net.Networks
	samples := cfg.Sim.Samples
	if samples <= 0 {
		samples = 100000
	}
	b := cfg.Sim.BatchSize
	if b <= 0 {
		b = samples / 30
		if b == 0 {
			b = 1
		}
	}
	nb := samples / b
	if nb < 1 {
		nb = 1
	}
	batches := make([]int, subs)
	for s := range batches {
		batches[s] = nb / subs
		if s < nb%subs {
			batches[s]++
		}
		if batches[s] == 0 {
			batches[s] = 1
		}
	}
	shards := cfg.Shards
	if shards <= 0 || shards > subs {
		shards = subs
	}
	groups := make([][2]int, shards)
	start := 0
	for g := range groups {
		n := subs / shards
		if g < subs%shards {
			n++
		}
		groups[g] = [2]int{start, start + n}
		start += n
	}
	pidOff := make([]int, subs)
	portOff := make([]int, subs)
	for s := range pidOff {
		pidOff[s] = s * cfg.Net.Inputs
		portOff[s] = s * cfg.Net.Outputs
	}
	return Plan{
		Subs: subs,
		SubNet: config.Config{
			Processors: cfg.Net.Inputs,
			Networks:   1,
			Inputs:     cfg.Net.Inputs,
			Outputs:    cfg.Net.Outputs,
			Type:       cfg.Net.Type,
			PerPort:    cfg.Net.PerPort,
		},
		BatchSize: b,
		Batches:   batches,
		Groups:    groups,
		PidOff:    pidOff,
		PortOff:   portOff,
	}, nil
}

// subConfig derives sub-network s's simulation config from the
// template: shard-axis seed (rep 0, the sub's only stream), the
// whole-batch sample quota, the sub's slice of any per-processor rates,
// and accumulator export for the merge.
func subConfig(cfg Config, plan Plan, s int, probe obs.Probe) sim.Config {
	sc := cfg.Sim
	sc.Seed = runner.DeriveShardSeed(cfg.Sim.Seed, s, 0)
	sc.Samples = plan.Batches[s] * plan.BatchSize
	sc.BatchSize = plan.BatchSize
	if sc.Lambdas != nil {
		per := plan.SubNet.Processors
		sc.Lambdas = sc.Lambdas[s*per : (s+1)*per]
	}
	sc.ExportAccumulators = true
	sc.Probe = probe
	return sc
}

// Run executes the sharded simulation and returns the merged Result.
// See the package comment for the determinism contract.
func Run(cfg Config) (sim.Result, error) {
	plan, results, err := RunSubs(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return Merge(plan, cfg.Sim.MuS, results)
}

// RunSubs executes the per-sub-network simulations and returns the
// plan plus every sub's Result in ascending sub order (accumulators
// exported). Callers that attached per-sub recorders via Config.Probe
// use the per-sub Results (SimTime in particular) to finish them, then
// fold with Merge and the obs shard merges; everyone else wants Run.
func RunSubs(cfg Config) (Plan, []sim.Result, error) {
	plan, err := BuildPlan(cfg)
	if err != nil {
		return Plan{}, nil, err
	}
	probes := make([]obs.Probe, plan.Subs)
	if cfg.Probe != nil {
		for s := range probes {
			//lint:ignore puredet caller-supplied probe factory; called once per sub in ascending order before any job runs, so factory state needs no locking and the call order is fixed
			probes[s] = cfg.Probe(s)
		}
	}
	type subOut struct {
		res sim.Result
		err error
	}
	groupOuts := runner.Map(runner.Options{Workers: cfg.Workers}, len(plan.Groups), func(g int) []subOut {
		lo, hi := plan.Groups[g][0], plan.Groups[g][1]
		outs := make([]subOut, 0, hi-lo)
		for s := lo; s < hi; s++ {
			net, err := plan.SubNet.Build(config.BuildOptions{})
			if err != nil {
				outs = append(outs, subOut{err: err})
				continue
			}
			res, err := sim.Run(net, subConfig(cfg, plan, s, probes[s]))
			outs = append(outs, subOut{res: res, err: err})
		}
		return outs
	})
	results := make([]sim.Result, 0, plan.Subs)
	for g, outs := range groupOuts {
		for i, o := range outs {
			if o.err != nil {
				return Plan{}, nil, fmt.Errorf("shard: sub-network %d: %w", plan.Groups[g][0]+i, o.err)
			}
			results = append(results, o.res)
		}
	}
	return plan, results, nil
}

// Merge folds per-sub Results into the system-level Result, in
// canonical ascending sub-network order:
//
//   - Delay and Response intervals come from folding the exported
//     batch-means accumulators (exact: every sub sits on a batch
//     boundary by construction);
//   - MeanQueue and Completed sum — the sub-systems coexist;
//   - Utilization is the ports-weighted mean of per-sub utilizations;
//   - SimTime is the slowest sub's clock;
//   - Telemetry sums field-wise, and Details are prefixed "sub%02d."
//     exactly as core.Partitioned.DetailCounters prefixes them;
//   - raw Delays (Config.CollectDelays) concatenate in sub order.
//
// Every Result must carry Accum (sim.Config.ExportAccumulators);
// results produced by Run always do.
func Merge(plan Plan, muS float64, results []sim.Result) (sim.Result, error) {
	if len(results) != plan.Subs {
		return sim.Result{}, fmt.Errorf("shard: merging %d results for %d sub-networks", len(results), plan.Subs)
	}
	for s, r := range results {
		if r.Accum == nil {
			return sim.Result{}, fmt.Errorf("shard: sub-network %d result lacks exported accumulators", s)
		}
	}
	var (
		out       sim.Result
		delays    *stats.BatchMeans
		responses *stats.BatchMeans
		utilPorts float64
		ports     int
	)
	for s, r := range results {
		if s == 0 {
			delays = r.Accum.Delays
			responses = r.Accum.Responses
		} else {
			delays.Merge(r.Accum.Delays)
			responses.Merge(r.Accum.Responses)
		}
		out.MeanQueue += r.MeanQueue
		out.Completed += r.Completed
		if r.SimTime > out.SimTime {
			out.SimTime = r.SimTime
		}
		utilPorts += r.Utilization * float64(r.Accum.Ports)
		ports += r.Accum.Ports
		out.Telemetry.Add(r.Telemetry)
		out.Details = core.AppendSubCounters(out.Details, s, r.Details)
		out.Delays = append(out.Delays, r.Delays...)
	}
	out.Delay = delays.Interval(0.95)
	out.Response = responses.Interval(0.95)
	out.NormalizedDelay = stats.CI{
		Mean:     out.Delay.Mean * muS,
		HalfWide: out.Delay.HalfWide * muS,
		N:        out.Delay.N,
	}
	if ports > 0 {
		out.Utilization = utilPorts / float64(ports)
	}
	return out, nil
}
