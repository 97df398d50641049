package experiments

import (
	"fmt"
	"math"
	"testing"

	"rsin/internal/config"
	"rsin/internal/markov"
	"rsin/internal/runner"
	"rsin/internal/sim"
)

// TestSimulatorMatchesMarkovChain is the cross-model golden test: the
// discrete-event simulator and the exact SBUS Markov chain implement
// the same system, so on a shared-bus configuration the simulated
// normalized delay must agree with the matrix-geometric CTMC solution
// within the batch-means confidence interval, across light through
// heavy load. This is the independent-replication check the paper
// itself performs ("the simulation results ... verified against the
// analytical results"), automated over a ρ ∈ {0.2..0.9} grid for
// (p, r) ∈ {(4,2), (8,4)}.
//
// ρ here is the load relative to the bus chain's own exact capacity
// (markov.Capacity), so every probe point is comparably deep into the
// stable region for both shapes.
func TestSimulatorMatchesMarkovChain(t *testing.T) {
	const (
		muN     = 1.0
		muS     = 0.5
		samples = 60000
		warmup  = 2000
		seed    = 77
	)
	rhos := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	for _, shape := range []struct{ p, r int }{{4, 2}, {8, 4}} {
		shape := shape
		t.Run(fmt.Sprintf("p=%d,r=%d", shape.p, shape.r), func(t *testing.T) {
			capacity := markov.Capacity(muN, muS, shape.r)
			cfg := mustParse(t, fmt.Sprintf("%d/1x%dx1 SBUS/%d", shape.p, shape.p, shape.r))
			type cell struct {
				exact, simd, half float64
				err               error
			}
			cells := runner.Map(runner.Options{}, len(rhos), func(i int) cell {
				lambda := rhos[i] * capacity / float64(shape.p)
				mres, err := markov.SolveMatrixGeometric(markov.Params{
					P: shape.p, Lambda: lambda, MuN: muN, MuS: muS, R: shape.r,
				})
				if err != nil {
					return cell{err: fmt.Errorf("markov at rho=%g: %w", rhos[i], err)}
				}
				net, err := cfg.Build(config.BuildOptions{})
				if err != nil {
					return cell{err: fmt.Errorf("build at rho=%g: %w", rhos[i], err)}
				}
				sres, err := sim.Run(net, sim.Config{
					Lambda: lambda, MuN: muN, MuS: muS,
					Seed: runner.DeriveSeed(seed, i, 0), Warmup: warmup, Samples: samples,
				})
				if err != nil {
					return cell{err: fmt.Errorf("sim at rho=%g: %w", rhos[i], err)}
				}
				return cell{
					exact: mres.NormalizedDelay,
					simd:  sres.NormalizedDelay.Mean,
					half:  sres.NormalizedDelay.HalfWide,
				}
			})
			for i, c := range cells {
				if c.err != nil {
					t.Fatal(c.err)
				}
				// Agreement within the CI, with a small relative slack
				// for the CI's own estimation error at finite samples
				// (batch-means intervals slightly undercover).
				tol := 3*c.half + 0.02*c.exact + 1e-4
				if diff := math.Abs(c.simd - c.exact); diff > tol {
					t.Errorf("rho=%g: sim %.5g ± %.2g vs exact %.5g (|Δ| = %.3g > tol %.3g)",
						rhos[i], c.simd, c.half, c.exact, diff, tol)
				} else {
					t.Logf("rho=%g: sim %.5g ± %.2g vs exact %.5g ok", rhos[i], c.simd, c.half, c.exact)
				}
			}
		})
	}
}
