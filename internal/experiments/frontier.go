package experiments

import (
	"errors"
	"fmt"
	"sort"

	"io"
	"strings"

	"rsin/internal/config"
	"rsin/internal/cost"
	"rsin/internal/markov"
	"rsin/internal/queueing"
	"rsin/internal/runner"
	"rsin/internal/sim"
)

// FrontierEntry is one candidate system evaluated under a hardware
// budget.
type FrontierEntry struct {
	Config    config.Config
	Cost      float64
	NetCost   float64
	Delay     float64 // normalized d·μs at the operating point
	Saturated bool
	Regime    cost.Regime
}

// Frontier makes Section VI's tradeoff quantitative: given a cost model
// and a hardware budget, it sizes each candidate network class (buying
// as many resources as the budget allows on top of the network), then
// measures the normalized delay of every affordable system at traffic
// intensity rho with μs/μn = ratio. The returned entries are sorted by
// delay; Winner picks the cheapest entry within 10% of the best delay,
// which is how a designer would read Table II.
//
// The candidate shapes mirror the paper's: private buses, partitioned
// buses, full and partitioned crossbars, and full and partitioned
// multistage networks.
func Frontier(m cost.Model, budget, ratio, rho float64, q Quality) ([]FrontierEntry, error) {
	muN := 1.0
	muS := ratio * muN
	shapes := []struct {
		format string // with %d for r
		maxR   int
	}{
		{"16/16x1x1 SBUS/%d", 64},
		{"16/2x8x1 SBUS/%d", 64},
		{"16/1x16x1 SBUS/%d", 128},
		{"16/1x16x16 XBAR/%d", 8},
		{"16/1x16x32 XBAR/%d", 4},
		{"16/4x4x4 XBAR/%d", 16},
		{"16/1x16x16 OMEGA/%d", 8},
		{"16/4x4x4 OMEGA/%d", 16},
		{"16/1x16x16 CUBE/%d", 8},
	}
	var entries []FrontierEntry
	for _, sh := range shapes {
		// Evaluate a doubling ladder of resource sizes plus the largest
		// affordable one: a designer is free to buy fewer resources
		// than the budget allows when they would not help.
		maxAffordable := 0
		for r := 1; r <= sh.maxR; r++ {
			c, err := config.Parse(fmt.Sprintf(sh.format, r))
			if err != nil {
				return nil, err
			}
			tc, err := m.TotalCost(c)
			if err != nil {
				return nil, err
			}
			if tc <= budget {
				maxAffordable = r
			}
		}
		if maxAffordable == 0 {
			continue
		}
		var rs []int
		for r := 1; r < maxAffordable; r *= 2 {
			rs = append(rs, r)
		}
		rs = append(rs, maxAffordable)
		for _, r := range rs {
			c, err := config.Parse(fmt.Sprintf(sh.format, r))
			if err != nil {
				return nil, err
			}
			tc, err := m.TotalCost(c)
			if err != nil {
				return nil, err
			}
			nc, err := m.NetworkCost(c)
			if err != nil {
				return nil, err
			}
			entries = append(entries, FrontierEntry{
				Config:  c,
				Cost:    tc,
				NetCost: nc,
				Regime:  cost.Classify(nc, m.ResourceCost(c)),
			})
		}
	}
	// The costs above are cheap arithmetic; the delays are simulations
	// (except SBUS), so measure every candidate in parallel on the
	// runner, each from its own derived seed base.
	type measured struct {
		delay     float64
		saturated bool
		err       error
	}
	delays := runner.Map(q.opts(), len(entries), func(i int) measured {
		d, sat, err := frontierDelay(entries[i].Config, muN, muS, rho, q, runner.DeriveSeed(q.Seed, i, 0))
		return measured{delay: d, saturated: sat, err: err}
	})
	for i := range entries {
		if delays[i].err != nil {
			return nil, delays[i].err
		}
		entries[i].Delay, entries[i].Saturated = delays[i].delay, delays[i].saturated
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Saturated != entries[j].Saturated {
			return !entries[i].Saturated
		}
		return entries[i].Delay < entries[j].Delay
	})
	return entries, nil
}

// frontierDelay evaluates one configuration at the operating point:
// exactly for SBUS systems, by simulation otherwise (seeded from the
// candidate's derived seed base). The arrival rate keeps the paper's
// reference-system ρ definition (16 processors, 32 reference
// resources) so all candidates face the same offered load.
func frontierDelay(c config.Config, muN, muS, rho float64, q Quality, seed uint64) (float64, bool, error) {
	lambda := queueing.LambdaForIntensity(rho, PlantProcessors, muN, muS, PlantResources)
	if c.Type == config.SBUS {
		res, err := markov.SolveMatrixGeometric(markov.Params{
			P: c.Inputs, Lambda: lambda, MuN: muN, MuS: muS, R: c.PerPort,
		})
		if errors.Is(err, markov.ErrUnstable) {
			return 0, true, nil
		}
		if err != nil {
			return 0, false, err
		}
		return res.NormalizedDelay, false, nil
	}
	net, err := c.Build(config.BuildOptions{})
	if err != nil {
		return 0, false, err
	}
	res, err := sim.Run(net, sim.Config{
		Lambda: lambda, MuN: muN, MuS: muS,
		Seed: runner.DeriveSeed(seed, 0, 0), Warmup: q.Warmup, Samples: q.Samples,
	})
	if errors.Is(err, sim.ErrSaturated) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	return res.NormalizedDelay.Mean, false, nil
}

// RenderFrontier writes one frontier (already computed) as a text table
// with its winner.
func RenderFrontier(w io.Writer, title string, entries []FrontierEntry, tolerance float64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== frontier: %s ==\n", title)
	fmt.Fprintf(&b, "%-22s | %-8s | %-8s | %-20s | %s\n", "configuration", "cost", "net", "regime", "d·μs")
	for _, e := range entries {
		delay := fmt.Sprintf("%.4g", e.Delay)
		if e.Saturated {
			delay = "saturated"
		}
		fmt.Fprintf(&b, "%-22s | %-8.4g | %-8.4g | %-20s | %s\n",
			e.Config.String(), e.Cost, e.NetCost, e.Regime, delay)
	}
	if win, ok := Winner(entries, tolerance); ok {
		fmt.Fprintf(&b, "winner (cheapest within %.0f%% of best delay): %s\n",
			tolerance*100, win.Config)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Winner returns the cheapest entry whose delay is within tolerance
// (e.g. 0.10 for 10%) of the best delay — the cost-conscious reading of
// the frontier.
func Winner(entries []FrontierEntry, tolerance float64) (FrontierEntry, bool) {
	var bestDelay float64
	haveBest := false
	for _, e := range entries {
		if !e.Saturated && (!haveBest || e.Delay < bestDelay) {
			bestDelay = e.Delay
			haveBest = true
		}
	}
	if !haveBest {
		return FrontierEntry{}, false
	}
	winner := FrontierEntry{}
	haveWinner := false
	for _, e := range entries {
		if e.Saturated || e.Delay > bestDelay*(1+tolerance) {
			continue
		}
		if !haveWinner || e.Cost < winner.Cost {
			winner = e
			haveWinner = true
		}
	}
	return winner, haveWinner
}
