// Package seedflow exercises the seedflow analyzer. It is loaded
// under the virtual import path rsin/internal/experiments (in scope:
// every seed must be derived) and again under an out-of-scope path
// where the same code is legal.
package seedflow

import (
	"rsin/internal/rng"
	"rsin/internal/runner"
	"rsin/internal/sim"
)

// BadLiteral seeds a stream with an inline constant.
func BadLiteral() *rng.Source {
	return rng.New(7) // want "rng\.New argument is not derived"
}

// BadArith derives a seed with ad-hoc arithmetic — the correlated
// stream bug the DeriveSeed scheme removed.
func BadArith(base uint64, i int) sim.Config {
	return sim.Config{Seed: base + uint64(i)} // want "Seed field is not derived"
}

// BadAssign writes a literal seed into a simulation config.
func BadAssign(cfg *sim.Config) {
	cfg.Seed = 42 // want "Seed assignment is not derived"
}

// GoodDerive uses the canonical derivation at every site.
func GoodDerive(base uint64, point, rep int) (*rng.Source, sim.Config) {
	cfg := sim.Config{Seed: runner.DeriveSeed(base, point, 2*rep)}
	src := rng.New(runner.DeriveSeed(base, point, 2*rep+1))
	_ = src
	return src, cfg
}

// GoodThreaded passes an already-derived value straight through; the
// producer of the value is checked where it is constructed.
func GoodThreaded(seed uint64, cfg sim.Config) (*rng.Source, sim.Config) {
	cfg.Seed = seed
	return rng.New(seed), cfg
}
