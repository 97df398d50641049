// VLSI function-unit pool: the paper's motivating PUMPS-style scenario.
// Sixteen general-purpose processors share a pool of 32 identical VLSI
// units (FFT / matrix-inversion / sorting engines). A task ships its
// operands to a unit (transmission, holding the network path), then the
// unit crunches for much longer than the shipment took (μs/μn = 0.1)
// while the path is released for other tasks.
//
// The example answers the designer's question from Section VI: given
// this workload, which interconnection should connect processors to the
// pool? It sweeps the candidate configurations across load levels and
// prints the delay table, then consults the Table II advisor.
//
// Run with:
//
//	go run ./examples/vlsipool
package main

import (
	"fmt"
	"log"
	"os"

	"rsin/internal/config"
	"rsin/internal/experiments"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

func main() {
	const (
		muN = 1.0 // operand shipment: mean 1 time unit
		muS = 0.1 // FFT execution: mean 10 time units
	)
	candidates := []string{
		"16/1x16x32 XBAR/1",  // full crossbar, private port per unit
		"16/1x16x16 OMEGA/2", // one Omega network, two units per port
		"16/4x4x4 OMEGA/2",   // four small Omega networks
		"16/16x1x1 SBUS/2",   // sixteen private buses
	}
	loads := []float64{0.3, 0.6, 0.9}

	fmt.Println("VLSI function-unit pool: 16 processors, 32 units, μs/μn = 0.1")
	fmt.Println("normalized queueing delay d·μs by configuration and load:")
	fmt.Printf("%-22s", "configuration")
	for _, rho := range loads {
		fmt.Printf(" | rho=%-12g", rho)
	}
	fmt.Println()
	best := map[float64]string{}
	bestVal := map[float64]float64{}
	for _, s := range candidates {
		cfg, err := config.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s", s)
		for _, rho := range loads {
			// A fresh network per run: sim.Run requires an idle network.
			net, err := cfg.Build(config.BuildOptions{})
			if err != nil {
				log.Fatal(err)
			}
			lambda := queueing.LambdaForIntensity(rho, 16, muN, muS, 32)
			res, err := sim.Run(net, sim.Config{
				Lambda: lambda, MuN: muN, MuS: muS,
				Seed: 11, Warmup: 2000, Samples: 150000,
			})
			if err != nil {
				fmt.Printf(" | %-16s", "saturated")
				continue
			}
			fmt.Printf(" | %-16s", res.NormalizedDelay.String())
			if v, ok := bestVal[rho]; !ok || res.NormalizedDelay.Mean < v {
				bestVal[rho] = res.NormalizedDelay.Mean
				best[rho] = s
			}
		}
		fmt.Println()
	}
	fmt.Println()
	for _, rho := range loads {
		if b, ok := best[rho]; ok {
			fmt.Printf("best at rho=%g: %s (d·μs = %.4g)\n", rho, b, bestVal[rho])
		}
	}

	// What does Table II say? VLSI units are dear, but so is a full
	// crossbar; with μs/μn small the multistage network is favored.
	rec := experiments.Advise(experiments.NetMuchCheaper, muS/muN)
	fmt.Printf("\nTable II (network cheap relative to the units, μs/μn = %g): use a %s.\n",
		muS/muN, rec.Network)
	if err := experiments.RenderTableII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
