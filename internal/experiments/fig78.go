package experiments

import (
	"fmt"

	"rsin/internal/config"
	"rsin/internal/markov"
)

// xbarConfigs is the curve set of the paper's Figs. 7 and 8: one full
// crossbar with private output ports, one with shared ports, and the
// partitioned variants whose cost/performance tradeoff Section IV
// discusses.
func xbarConfigs() ([]config.Config, error) {
	return parseConfigs(
		"16/1x16x32 XBAR/1",
		"16/1x16x16 XBAR/2",
		"16/2x8x8 XBAR/2",
		"16/4x4x4 XBAR/2",
	)
}

// FigXBAR regenerates Fig. 7 (ratio = 0.1) or Fig. 8 (ratio = 1.0):
// normalized queueing delay of the multiple-shared-bus configurations
// versus traffic intensity, by discrete-event simulation.
func FigXBAR(id string, ratio float64, rhos []float64, q Quality) (Figure, error) {
	const muN = 1.0
	muS := ratio * muN
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Normalized queueing delay of multiple shared buses, μs/μn = %g (simulation)", ratio),
		XLabel: "rho",
		YLabel: "d·μs",
	}
	cfgs, err := xbarConfigs()
	if err != nil {
		return Figure{}, err
	}
	fig.Series, err = simSeriesSet(cfgs, muN, muS, rhos, q, 0)
	if err != nil {
		return Figure{}, err
	}
	fig.Notes = append(fig.Notes,
		"XBAR/1 gives every resource a private output port; XBAR/2 shares each port between two resources",
	)
	return fig, nil
}

// Fig7 regenerates the paper's Fig. 7 (μs/μn = 0.1).
func Fig7(rhos []float64, q Quality) (Figure, error) { return FigXBAR("fig7", 0.1, rhos, q) }

// Fig8 regenerates the paper's Fig. 8 (μs/μn = 1.0).
func Fig8(rhos []float64, q Quality) (Figure, error) { return FigXBAR("fig8", 1.0, rhos, q) }

// LightLoadApproximation returns the Section IV light-load
// approximation of a crossbar's normalized delay: with other processors
// effectively absent, each processor sees the whole switch as a private
// single bus reaching all m·r resources, so the Section III analysis
// applies with P = 1.
func LightLoadApproximation(lambda, muN, muS float64, ports, perPort int) (float64, bool, error) {
	return sbusMarkov(markov.Params{P: 1, Lambda: lambda, MuN: muN, MuS: muS, R: ports * perPort})
}

// HeavyLoadApproximation returns the Section IV heavy-load
// approximation: the m buses partition among the p processors. For
// p ≥ m (p/m integral) each bus serves p/m processors with r resources;
// for m ≥ p (m/p integral) each processor owns m/p buses reaching
// m·r/p resources but can use only one at a time, so a single bus with
// m·r/p resources models it.
func HeavyLoadApproximation(lambda, muN, muS float64, p, ports, perPort int) (float64, bool, error) {
	switch {
	case p >= ports && p%ports == 0:
		return sbusMarkov(markov.Params{P: p / ports, Lambda: lambda, MuN: muN, MuS: muS, R: perPort})
	case ports > p && ports%p == 0:
		return sbusMarkov(markov.Params{P: 1, Lambda: lambda, MuN: muN, MuS: muS, R: ports * perPort / p})
	default:
		return 0, false, fmt.Errorf("experiments: heavy-load approximation needs p/m or m/p integral, got p=%d m=%d", p, ports)
	}
}

// CrossbarApproximation blends the Section IV light- and heavy-load
// approximations into one analytical estimate for the crossbar's
// normalized delay. The paper evaluates the two limits separately and
// falls back to simulation "for cases in between"; the blend weights
// the heavy-load regime by the utilization u of the system's binding
// element (u² keeps the light-load limit dominant until congestion is
// real). The approximation quality across the whole load range is
// quantified in the tests against the simulator.
func CrossbarApproximation(lambda, muN, muS float64, p, ports, perPort int) (float64, bool, error) {
	light, satL, err := LightLoadApproximation(lambda, muN, muS, ports, perPort)
	if err != nil {
		return 0, false, err
	}
	heavy, satH, err := HeavyLoadApproximation(lambda, muN, muS, p, ports, perPort)
	if err != nil {
		return 0, false, err
	}
	if satH {
		// Beyond the partitioned system's capacity the real crossbar
		// may still be stable, but the analytical model is not.
		return 0, true, nil
	}
	if satL {
		return 0, true, nil
	}
	// The heavy-load (partitioning) model describes bus contention, so
	// its weight follows the network utilization specifically; when the
	// resources bind instead, partitioning never materializes and the
	// light-load model stays accurate (the paper's own validity note:
	// the heavy approximation is satisfactory when μs·d is large, i.e.
	// when delays are dominated by the network).
	lamTot := float64(p) * lambda
	uNet := lamTot / (float64(ports) * muN)
	if uNet >= 1 {
		return 0, true, nil
	}
	w := uNet * uNet
	return (1-w)*light + w*heavy, false, nil
}
