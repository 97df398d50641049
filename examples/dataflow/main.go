// Dataflow dispatch: the paper's third motivating application. A
// dataflow machine's node store holds enabled instruction packets; each
// must be shipped — operands and all — to any free processing element
// (PE) in a homogeneous pool. Because a packet cannot begin executing
// until it has fully arrived (the paper's argument for circuit
// switching), shipment time is substantial: here μs/μn = 1, i.e. moving
// a packet takes as long as executing it.
//
// In this regime the network, not the PE pool, is the bottleneck, and
// the paper's Section VI guidance flips: crossbars (more simultaneous
// circuits) beat Omega networks, and private output ports per PE beat
// shared ones. The example measures exactly that.
//
// Run with:
//
//	go run ./examples/dataflow
package main

import (
	"fmt"
	"log"

	"rsin/internal/config"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

func main() {
	const (
		muN = 1.0 // packet shipment: mean 1 time unit, holds a circuit
		muS = 1.0 // packet execution on a PE: mean 1 time unit
	)
	// 16 node-store banks dispatching to 32 PEs.
	candidates := []string{
		"16/1x16x32 XBAR/1",  // crossbar, private port per PE
		"16/1x16x16 XBAR/2",  // crossbar, 2 PEs per port
		"16/1x16x16 OMEGA/2", // Omega network, 2 PEs per port
		"16/8x2x2 OMEGA/2",   // eight tiny Omega networks
	}
	fmt.Println("dataflow dispatch: 16 node-store banks, 32 PEs, μs/μn = 1 (network-bound)")
	for _, rho := range []float64{0.4, 0.7, 0.9} {
		lambda := queueing.LambdaForIntensity(rho, 16, muN, muS, 32)
		fmt.Printf("\nreference traffic intensity rho = %g (λ = %.4g per bank):\n", rho, lambda)
		type row struct {
			cfg   string
			delay string
			mean  float64
			ok    bool
		}
		var rows []row
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
				Lambda: lambda, MuN: muN, MuS: muS,
				Seed: 3, Warmup: 2000, Samples: 150000,
			})
			if err != nil {
				rows = append(rows, row{cfg: s, delay: "saturated"})
				continue
			}
			rows = append(rows, row{cfg: s, delay: res.NormalizedDelay.String(), mean: res.NormalizedDelay.Mean, ok: true})
		}
		for _, r := range rows {
			fmt.Printf("  %-22s d·μs = %s\n", r.cfg, r.delay)
		}
		if rows[0].ok && rows[2].ok {
			fmt.Printf("  crossbar/1 vs omega/2: %.2fx\n", rows[2].mean/rows[0].mean)
		}
	}
	fmt.Println("\nWith shipment as costly as execution, give each PE a private output port")
	fmt.Println("and prefer the crossbar — Table II's large-μs/μn column.")
}
