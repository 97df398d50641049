// Typed resource pool: the paper's Section V extension to multiple
// resource types. A 16-node system shares a heterogeneous accelerator
// pool through one 16×16 Omega network: every output port carries one
// FFT engine and one matrix-inversion engine (two types, 32 units
// total). The request signal carries the type; each box conceptually
// keeps one availability register per type, for O(t·log₂ N) status
// overhead.
//
// The example also demonstrates the paper's Section VII degeneracy: if
// instead each port carries a single distinct type, the type number IS
// the destination address and the RSIN behaves exactly like a
// conventional address-mapped network.
//
// Run with:
//
//	go run ./examples/typedpool
package main

import (
	"fmt"
	"log"

	"rsin/internal/omega"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

func main() {
	const (
		nodes = 16
		muN   = 1.0
		muS   = 0.1
	)
	// Two types on every port: type 0 = FFT, type 1 = matrix inversion.
	pools := make([][]int, nodes)
	for j := range pools {
		pools[j] = []int{1, 1}
	}
	net := omega.NewTyped(nodes, pools)
	fmt.Printf("heterogeneous pool: %d ports × {1 FFT, 1 MATINV}, status overhead %d bits/path (t·log₂N)\n",
		nodes, net.StatusOverhead())

	// Processor classes: DSP-heavy nodes (even) request FFTs, linear
	// algebra nodes (odd) request matrix inversions.
	typeOf := make([]int, nodes)
	for i := range typeOf {
		typeOf[i] = i % 2
	}
	lambda := queueing.LambdaForIntensity(0.6, nodes, muN, muS, net.TotalResources())
	res, err := sim.Run(net.Bind(typeOf), sim.Config{
		Lambda: lambda, MuN: muN, MuS: muS,
		Seed: 7, Warmup: 2000, Samples: 150000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed FFT/MATINV workload at rho=0.6: delay d = %s (normalized %s)\n",
		res.Delay, res.NormalizedDelay)
	tel := res.Telemetry
	fmt.Printf("blocked: %.1f%% (%d resource, %d path), %d in-network rejects\n\n",
		100*float64(tel.Failures)/float64(tel.Attempts),
		tel.ResourceBlock, tel.PathBlock, tel.Rejects)

	// Degenerate case: one distinct type per port — typed acquisition
	// becomes address mapping (Section VII).
	degenerate := make([][]int, 8)
	for j := range degenerate {
		degenerate[j] = make([]int, 8)
		degenerate[j][j] = 1
	}
	typed := omega.NewTyped(8, degenerate)
	addr := omega.New(8, 1)
	agree := true
	for pid := 0; pid < 8; pid++ {
		dst := (pid + 3) % 8
		g1, ok1 := typed.AcquireType(pid, dst)
		g2, ok2 := addr.AcquireTag(pid, dst)
		if ok1 != ok2 || (ok1 && g1.Port != g2.Port) {
			agree = false
		}
	}
	fmt.Println("degenerate one-type-per-port network ≡ address mapping:", agree)
	fmt.Println("(resource sharing generalizes conventional address-mapped access — paper §VII)")
}
