package experiments

import (
	"fmt"

	"rsin/internal/queueing"
)

// FigRatioSweep sweeps the decisive parameter of Section VI — the ratio
// μs/μn of task service to transmission rates — at a fixed traffic
// intensity, comparing the full crossbar, the full Omega network, and
// the private-bus system. Table II's advice keys on exactly this axis:
// multistage networks are favorable while μs/μn is small (resources
// bound), crossbars gain as the network becomes the bottleneck, and the
// relative attraction of simply buying more private resources fades.
//
// Delays are normalized per-ratio by μs, as in the paper's figures.
func FigRatioSweep(rho float64, ratios []float64, q Quality) (Figure, error) {
	const muN = 1.0
	fig := Figure{
		ID:     "ratio-sweep",
		Title:  fmt.Sprintf("Normalized delay vs μs/μn at rho = %g (simulation)", rho),
		XLabel: "μs/μn",
		YLabel: "d·μs",
	}
	configs, err := parseConfigs(
		"16/1x16x32 XBAR/1",
		"16/1x16x16 OMEGA/2",
		"16/16x1x1 SBUS/2",
	)
	if err != nil {
		return Figure{}, err
	}
	pts := make([]sweepPoint, len(ratios))
	for i, r := range ratios {
		muS := r * muN
		pts[i] = sweepPoint{x: r, muS: muS, lambda: queueing.LambdaForIntensity(rho, PlantProcessors, muN, muS, PlantResources)}
	}
	if fig.Series, err = simSeriesSet(configs, muN, pts, q, 0); err != nil {
		return Figure{}, err
	}
	fig.Notes = append(fig.Notes,
		"Table II keys its recommendation on μs/μn: multistage while small, crossbar as it grows",
	)
	return fig, nil
}

// PaperRatioGrid is the μs/μn sweep used by the ratio figure.
func PaperRatioGrid() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10}
}
