package experiments

import (
	"fmt"

	"rsin/internal/queueing"
	"rsin/internal/runner"
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
	// Flatten (configuration × ratio × replication) into one runner job
	// set with per-point derived seeds; collect by index.
	reps := q.reps()
	perCfg := len(ratios) * reps
	type cell struct {
		p   Point
		err error
	}
	run := runner.Map(q.opts(), len(configs)*perCfg, func(j int) cell {
		c, rem := j/perCfg, j%perCfg
		ri, rep := rem/reps, rem%reps
		muS := ratios[ri] * muN
		lambda := queueing.LambdaForIntensity(rho, PlantProcessors, muN, muS, PlantResources)
		base := runner.DeriveSeed(q.Seed, c, 0)
		p, err := simPoint(configs[c], muN, muS, ratios[ri], lambda, q, base, ri, rep)
		return cell{p: p, err: err}
	})
	for _, cl := range run {
		if cl.err != nil {
			return Figure{}, cl.err
		}
	}
	for c, cfg := range configs {
		s := Series{Label: cfg.String()}
		for ri := range ratios {
			off := c*perCfg + ri*reps
			group := make([]Point, reps)
			for k := range group {
				group[k] = run[off+k].p
			}
			s.Points = append(s.Points, poolPoint(group))
		}
		fig.Series = append(fig.Series, s)
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
