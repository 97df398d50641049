// Load balancing: the paper's second motivating application, where the
// processors themselves are the shared resources. An overloaded
// processor sends its excess tasks through the RSIN to any idle peer.
//
// We model a 16-node system whose offered load is badly skewed: four
// "hot" nodes generate 4/5 of all traffic. Execution dominates shipment
// (μs/μn = 0.2). With private resources (no sharing) the hot nodes'
// queues explode while cold nodes idle; a resource-sharing network lets
// the hot nodes spill work onto anyone free.
//
// Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"rsin/internal/config"
	"rsin/internal/invariant"
	"rsin/internal/sim"
)

func main() {
	const (
		muN     = 1.0
		muS     = 0.2 // remote execution: mean 5 time units
		hotRate = 0.12
		coldX   = 0.25 // cold nodes generate a quarter of the hot rate
	)
	// Per-node offload rates: 4 hot nodes, 12 cold ones.
	lambdas := make([]float64, 16)
	total := 0.0
	for i := range lambdas {
		if i < 4 {
			lambdas[i] = hotRate
		} else {
			lambdas[i] = hotRate * coldX
		}
		total += lambdas[i]
	}
	fmt.Printf("load balancing across 16 nodes, 32 execution slots, skewed load\n")
	fmt.Printf("aggregate offload rate %.3g tasks/unit time (hot nodes: %.3g, cold: %.3g)\n\n",
		total, hotRate, hotRate*coldX)

	candidates := []string{
		"16/16x1x1 SBUS/2",   // no sharing: each node owns 2 slots
		"16/4x4x4 XBAR/2",    // sharing within clusters of 4
		"16/1x16x16 OMEGA/2", // global sharing via an Omega network
		"16/1x16x32 XBAR/1",  // global sharing via a full crossbar
	}
	fmt.Printf("%-22s | %-22s | %-10s | %s\n", "configuration", "offload delay d", "port util", "blocked%")
	for _, s := range candidates {
		cfg, err := config.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		net, err := cfg.Build(config.BuildOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(net, sim.Config{
			Lambdas: lambdas, MuN: muN, MuS: muS,
			Seed: 5, Warmup: 3000, Samples: 200000,
		})
		if err != nil {
			fmt.Printf("%-22s | %s\n", s, "saturated: hot nodes cannot shed load")
			continue
		}
		tel := res.Telemetry
		blocked := 100 * float64(tel.Failures) / float64(tel.Attempts)
		fmt.Printf("%-22s | %-22s | %-10.3f | %.1f%%\n", s, res.Delay.String(),
			invariant.MustProbability("sim", "port utilization", res.Utilization), blocked)
	}
	fmt.Println("\nPrivate slots leave the hot nodes queueing behind their own two slots;")
	fmt.Println("any sharing network flattens the skew by routing excess work to idle peers.")
}
