package experiments

import (
	"fmt"

	"rsin/internal/runner"
	"rsin/internal/workload"
)

// FigCompare regenerates the Section VI cross-network comparison at a
// given μs/μn ratio: the private-bus system with extra resources
// (16/16×1×1 SBUS/3) against the partitioned Omega and crossbar systems
// (16/4×4×4 OMEGA/2, 16/4×4×4 XBAR/2) that use fewer resources but
// richer networks, plus the full-size networks as reference. The paper
// observes that when network and resource costs are comparable, many
// small networks with more resources win.
func FigCompare(ratio float64, rhos []float64, q Quality) (Figure, error) {
	const muN = 1.0
	muS := ratio * muN
	fig := Figure{
		ID:     "compare",
		Title:  fmt.Sprintf("Cross-network comparison (Section VI), μs/μn = %g", ratio),
		XLabel: "rho",
		YLabel: "d·μs",
	}

	// SBUS/3 private buses: exact analysis, parallel over the grid.
	sbus := Series{Label: "16/16x1x1 SBUS/3 (48 res, analytic)"}
	pts := workload.Sweep(PlantProcessors, muN, muS, PlantResources, rhos)
	sbus.Points = runner.Map(q.opts(), len(pts), func(i int) Point {
		pt := pts[i]
		d, sat, err := SBUSDelay(SBUSVariant{PrivateR: 3}, pt.Lambda, muN, muS)
		if err != nil {
			sat = true
		}
		return Point{X: pt.Rho, Y: d, Saturated: sat}
	})
	fig.Series = append(fig.Series, sbus)

	cfgs, err := parseConfigs(
		"16/4x4x4 OMEGA/2",
		"16/4x4x4 XBAR/2",
		"16/1x16x16 OMEGA/2",
		"16/1x16x16 XBAR/2",
	)
	if err != nil {
		return Figure{}, err
	}
	set, err := simSeriesSet(cfgs, muN, muS, rhos, q, 1)
	if err != nil {
		return Figure{}, err
	}
	fig.Series = append(fig.Series, set...)
	fig.Notes = append(fig.Notes,
		"paper: 16/16×1×1 SBUS/3 has much better delay behavior than 16/4×4×4 OMEGA/2 or XBAR/2",
	)
	return fig, nil
}
