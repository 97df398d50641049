// Quickstart: describe a resource-sharing system in the paper's
// notation, simulate it, and compare against the exact Markov analysis
// where one exists.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rsin/internal/config"
	"rsin/internal/invariant"
	"rsin/internal/markov"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

func main() {
	// A system of 16 processors sharing 32 identical resources through
	// one 16×16 Omega network with two resources per output port —
	// "16/1×16×16 OMEGA/2" in the paper's p/i×j×k NET/r notation.
	cfg, err := config.Parse("16/1x16x16 OMEGA/2")
	if err != nil {
		log.Fatal(err)
	}
	net, err := cfg.Build(config.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Operating point: transmission rate μn = 1, service rate μs = 0.1
	// (tasks take 10× longer to execute than to ship), and a
	// per-processor arrival rate chosen so the reference traffic
	// intensity is 0.5.
	const muN, muS = 1.0, 0.1
	lambda := queueing.LambdaForIntensity(0.5, cfg.Processors, muN, muS, cfg.TotalResources())

	res, err := sim.Run(net, sim.Config{
		Lambda:  lambda,
		MuN:     muN,
		MuS:     muS,
		Seed:    42,
		Warmup:  2000,
		Samples: 200000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at rho=0.5:\n", cfg)
	fmt.Printf("  queueing delay    : %s (normalized %s)\n", res.Delay, res.NormalizedDelay)
	fmt.Printf("  port utilization  : %.3f\n", invariant.MustProbability("sim", "port utilization", res.Utilization))
	tel := res.Telemetry
	fmt.Printf("  blocked attempts  : %.1f%% (%d by busy resources, %d by busy paths)\n",
		100*float64(tel.Failures)/float64(tel.Attempts), tel.ResourceBlock, tel.PathBlock)
	fmt.Printf("  boxes per grant   : %.2f with %d in-network rejects\n\n",
		float64(tel.BoxVisits)/float64(tel.Grants), tel.Rejects)

	// The same resources behind sixteen private buses — the degenerate
	// RSIN the paper analyzes exactly. Simulation and the Section III
	// Markov chain agree.
	private, err := config.Parse("16/16x1x1 SBUS/2")
	if err != nil {
		log.Fatal(err)
	}
	privateNet, err := private.Build(config.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	simRes, err := sim.Run(privateNet, sim.Config{
		Lambda: lambda, MuN: muN, MuS: muS, Seed: 7, Warmup: 2000, Samples: 200000,
	})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := markov.SolveMatrixGeometric(markov.Params{
		P: 1, Lambda: lambda, MuN: muN, MuS: muS, R: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at the same load:\n", private)
	fmt.Printf("  simulated delay   : %s\n", simRes.Delay)
	fmt.Printf("  exact (Markov)    : %.6g\n", exact.Delay)
	fmt.Printf("The richer network is %0.1f× faster here because it pools all 32 resources.\n",
		simRes.Delay.Mean/res.Delay.Mean)
}
