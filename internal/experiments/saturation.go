package experiments

import (
	"errors"

	"rsin/internal/config"
	"rsin/internal/markov"
	"rsin/internal/queueing"
	"rsin/internal/runner"
	"rsin/internal/sim"
)

// SaturationSearch estimates the saturation traffic intensity ρ* of a
// configuration at the given μs/μn ratio: the largest reference-system
// ρ the system can carry in steady state. The search brackets ρ* by
// bisection; a probe point counts as saturated when the simulation
// trips its queue cap (the queue grows without bound above capacity).
//
// The simulation probe is an upper estimate: just above capacity the
// queue drifts too slowly to trip the cap within the probe horizon, so
// ρ* can be overstated by a few percent. For SBUS systems the exact
// value from the Markov drift bound (markov.Capacity) is used instead;
// the tests validate the search against it.
func SaturationSearch(cfg config.Config, ratio float64, q Quality) (float64, error) {
	muN := 1.0
	muS := ratio * muN
	lo, hi := 0.0, 2.0
	// 10 bisections give ρ* to ±0.001·2 — far below simulation noise.
	// The probes are inherently sequential (each depends on the last
	// verdict), but each draws a fresh derived stream so consecutive
	// probes are statistically independent.
	for iter := 0; iter < 10; iter++ {
		mid := (lo + hi) / 2
		sat, err := saturatedAt(cfg, muN, muS, mid, q, iter)
		if err != nil {
			return 0, err
		}
		if sat {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}

// SaturationProfile estimates ρ* for every configuration in parallel
// on the runner, each search drawing from its own derived seed base.
// Results are indexed like cfgs and identical for any q.Workers.
func SaturationProfile(cfgs []config.Config, ratio float64, q Quality) ([]float64, error) {
	type cell struct {
		rho float64
		err error
	}
	run := runner.Map(q.opts(), len(cfgs), func(i int) cell {
		qi := q
		qi.Seed = runner.DeriveSeed(q.Seed, i, 0)
		qi.Progress = nil  // the outer Map reports per-configuration
		qi.Telemetry = nil // inner sweeps would double-count the outer jobs
		rho, err := SaturationSearch(cfgs[i], ratio, qi)
		return cell{rho: rho, err: err}
	})
	out := make([]float64, len(cfgs))
	for i, cl := range run {
		if cl.err != nil {
			return nil, cl.err
		}
		out[i] = cl.rho
	}
	return out, nil
}

// saturatedAt probes one operating point. probe indexes the bisection
// step and keys the derived seeds of the probe's random streams.
func saturatedAt(cfg config.Config, muN, muS, rho float64, q Quality, probe int) (bool, error) {
	lambda := queueing.LambdaForIntensity(rho, PlantProcessors, muN, muS, PlantResources)
	if cfg.Type == config.SBUS {
		// Exact: compare the per-bus arrival rate against the drift
		// capacity.
		perBus := float64(cfg.Inputs) * lambda
		return perBus >= markov.Capacity(muN, muS, cfg.PerPort), nil
	}
	net, err := cfg.Build(config.BuildOptions{})
	if err != nil {
		return false, err
	}
	samples := q.Samples
	if samples < 40000 {
		samples = 40000 // give slow divergence time to express itself
	}
	_, err = sim.Run(net, sim.Config{
		Lambda: lambda, MuN: muN, MuS: muS,
		Seed: runner.DeriveSeed(q.Seed, probe, 0), Warmup: q.Warmup, Samples: samples,
		MaxQueue: 300,
	})
	if errors.Is(err, sim.ErrSaturated) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return false, nil
}
