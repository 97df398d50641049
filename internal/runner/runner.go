// Package runner is the parallel sweep-execution engine behind the
// experiment harness. Every figure of the paper's evaluation is a grid
// of independent operating points (a configuration at a traffic
// intensity, possibly replicated); the runner fans those points across
// a pool of goroutines while keeping the results **bit-for-bit
// deterministic**: each job's pseudo-random stream is derived only from
// the job's index (DeriveSeed), and results are collected by index, so
// the output is identical for any worker count and any scheduling
// order.
//
// The package deliberately knows nothing about simulations or figures;
// it provides an indexed parallel map, the seed-derivation scheme, a
// progress reporter, and wall-clock execution telemetry (telemetry.go).
// The experiment code composes these.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tune one parallel execution.
type Options struct {
	// Workers is the number of goroutines executing jobs. Zero or
	// negative means runtime.NumCPU(). The result of Map does not
	// depend on Workers — only the wall-clock time does.
	Workers int

	// Progress, when non-nil, is called after each completed job with
	// the number of finished jobs and the total. Calls are serialized
	// (never concurrent) but may arrive in any completion order; done
	// is strictly increasing across calls.
	Progress func(done, total int)

	// Telemetry, when non-nil, records each job's wall-clock execution
	// window and worker assignment. Purely observational: it never
	// affects results, which stay bit-for-bit identical with or without
	// it.
	Telemetry *Telemetry
}

// workers resolves the effective worker count for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		//lint:ignore puredet worker count tunes scheduling only; the slot-indexed merge is worker-count invariant (pinned by byte-identity tests)
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(i) for every i in [0, n) on a pool of opt.Workers
// goroutines and returns the results indexed by i. Job i's result is
// always stored at slot i, so the returned slice is independent of the
// worker count and of goroutine scheduling; determinism of the whole
// computation then only requires that fn(i) itself is a pure function
// of i (derive any randomness from DeriveSeed with i as the point
// index).
//
// fn must not panic in normal operation: a panic inside a worker
// goroutine terminates the process.
func Map[T any](opt Options, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := opt.workers(n)
	run := func(i, worker int) {
		if tel := opt.Telemetry; tel != nil {
			start := tel.now()
			//lint:ignore puredet caller-supplied job body; its closure is certified at its own root
			out[i] = fn(i)
			tel.observe(i, worker, start, tel.now())
			return
		}
		//lint:ignore puredet caller-supplied job body; its closure is certified at its own root
		out[i] = fn(i)
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			run(i, 0)
			if opt.Progress != nil {
				//lint:ignore puredet progress callback consumes counts only; results land in slot-indexed storage
				opt.Progress(i+1, n)
			}
		}
		return out
	}
	var next, done atomic.Int64
	var mu sync.Mutex
	reported := 0 // highest count delivered to Progress, guarded by mu
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, worker)
				d := int(done.Add(1))
				if opt.Progress != nil {
					// Incrementing done and delivering the callback are
					// separate steps, so workers can reach the lock out of
					// order; dropping stale counts keeps the delivered
					// sequence strictly increasing and guarantees the final
					// call reports n.
					mu.Lock()
					if d > reported {
						reported = d
						//lint:ignore puredet progress callback consumes counts only; results land in slot-indexed storage
						opt.Progress(d, n)
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	return out
}

// splitmix is the splitmix64 step: add the golden-ratio increment and
// apply the avalanching finalizer. It is a bijection on uint64.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives an independent PRNG seed for the
// (base, point, rep) triple by chaining splitmix64 finalizations —
// the construction the xoshiro authors recommend for spawning
// non-overlapping streams. Distinct triples yield distinct,
// uncorrelated seeds with overwhelming probability, so every sweep
// point and every replication gets its own random stream instead of
// all points replaying the identical stream from a shared base seed.
//
// The rep axis can also separate the *purposes* a single job needs
// randomness for, not only literal replications: the figure sweeps and
// rsinsim seed replication r's simulation from slot 2r, and the
// saturation search and the frontier seed theirs from slot 0 of their
// own bases. The odd slots once seeded the networks, which draw no
// random numbers; they stay unused so every simulation keeps its
// stream.
func DeriveSeed(base uint64, point, rep int) uint64 {
	z := splitmix(base)
	z = splitmix(z ^ (uint64(int64(point)) + 0x9e3779b97f4a7c15))
	z = splitmix(z ^ (uint64(int64(rep)) + 0xbf58476d1ce4e5b9))
	return z
}

// DeriveShardSeed derives an independent PRNG seed for the (base, shard,
// rep) triple. It is the shard-axis counterpart of DeriveSeed, used by
// internal/shard to give every sub-network of one sharded run its own
// decorrelated stream: the chain is salted with a distinct constant so
// shard streams never collide with any (point, rep) stream DeriveSeed
// can produce from the same base. A sub-network's simulation stream is
// rep 0; no other purpose draws from the shard axis.
func DeriveShardSeed(base uint64, shard, rep int) uint64 {
	z := splitmix(base ^ 0x94d049bb133111eb)
	z = splitmix(z ^ (uint64(int64(shard)) + 0x9e3779b97f4a7c15))
	z = splitmix(z ^ (uint64(int64(rep)) + 0xbf58476d1ce4e5b9))
	return z
}
