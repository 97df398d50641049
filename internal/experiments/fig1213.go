package experiments

import (
	"fmt"

	"rsin/internal/config"
)

// omegaConfigs is the curve set of the paper's Figs. 12 and 13: one
// full 16×16 Omega network versus partitions into smaller networks
// (the paper highlights that eight 2×2 networks track one 16×16
// network closely except under heavy load).
func omegaConfigs() ([]config.Config, error) {
	return parseConfigs(
		"16/1x16x16 OMEGA/2",
		"16/4x4x4 OMEGA/2",
		"16/8x2x2 OMEGA/2",
	)
}

// FigOmega regenerates Fig. 12 (ratio = 0.1) or Fig. 13 (ratio = 1.0):
// normalized queueing delay of the Omega-network configurations versus
// traffic intensity, by discrete-event simulation of the distributed
// scheduling algorithm (availability-guided routing with
// reject/reroute).
func FigOmega(id string, ratio float64, rhos []float64, q Quality) (Figure, error) {
	const muN = 1.0
	muS := ratio * muN
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Normalized queueing delay of Omega networks, μs/μn = %g (simulation)", ratio),
		XLabel: "rho",
		YLabel: "d·μs",
	}
	cfgs, err := omegaConfigs()
	if err != nil {
		return Figure{}, err
	}
	fig.Series, err = simSeriesSet(cfgs, muN, rhoPoints(muN, muS, rhos), q, 0)
	if err != nil {
		return Figure{}, err
	}
	fig.Notes = append(fig.Notes,
		"distributed scheduling: status bits propagate backward, requests route forward with reject/reroute",
	)
	return fig, nil
}

// Fig12 regenerates the paper's Fig. 12 (μs/μn = 0.1).
func Fig12(rhos []float64, q Quality) (Figure, error) { return FigOmega("fig12", 0.1, rhos, q) }

// Fig13 regenerates the paper's Fig. 13 (μs/μn = 1.0).
func Fig13(rhos []float64, q Quality) (Figure, error) { return FigOmega("fig13", 1.0, rhos, q) }
