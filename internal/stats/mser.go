// MSER-5 warmup truncation (White 1997; Franklin & White 2008): given a
// time series of simulation output, estimate how many leading
// observations belong to the initialization transient. The series is
// reduced to non-overlapping batch means of 5, and for each candidate
// truncation point the marginal standard error ratio — the variance of
// the remaining batch means divided by their squared count — is
// evaluated; the minimizer marks where the transient has died out.
// RSIN uses it as a cross-check on the hand-set warmup windows: the
// estimate from a recorded queue-length series should never exceed the
// warmup the experiments already discard.

package stats

import (
	"errors"
	"fmt"
	"math"
)

// mserBatch is the MSER-5 batch size.
const mserBatch = 5

// MSER5 returns the number of leading observations of x to truncate as
// initialization transient, always a multiple of the batch size 5 and
// never more than half the series (the standard guard against
// degenerate minima in the data-starved tail). A series too short to
// batch (fewer than 10 observations, i.e. fewer than two batches)
// returns 0. It panics (wrapping ErrNonFiniteSample) on NaN or ±Inf
// observations, which would poison every candidate statistic.
func MSER5(x []float64) int {
	d, _ := mser5(x)
	return d * mserBatch
}

// ErrNonFiniteSample is the sentinel wrapped by the panic MSER5 raises
// on NaN or ±Inf observations (same pattern as ErrTimeBackwards).
var ErrNonFiniteSample = errors.New("stats: non-finite observation")

// mser5 returns the truncation point in batches together with the
// minimized MSER statistic, the squared standard error of the
// post-truncation batch means; the statistic is NaN when the series is
// too short to batch.
func mser5(x []float64) (int, float64) {
	m := len(x) / mserBatch
	if m < 2 {
		return 0, math.NaN()
	}
	// Batch means z_0..z_{m-1}; a trailing partial batch is dropped,
	// as in the original formulation.
	z := make([]float64, m)
	for j := 0; j < m; j++ {
		var sum float64
		for i := j * mserBatch; i < (j+1)*mserBatch; i++ {
			v := x[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Errorf("%w: x[%d] = %g", ErrNonFiniteSample, i, v))
			}
			sum += v
		}
		z[j] = sum / mserBatch
	}
	// Walk candidate truncations d from the tail so the suffix sums
	// accumulate in O(m); only d ≤ m/2 compete, and on ties the
	// smallest d wins (<=, since smaller d is visited later).
	var sum, sumsq float64
	bestD, bestStat := 0, math.Inf(1)
	for d := m - 1; d >= 0; d-- {
		sum += z[d]
		sumsq += z[d] * z[d]
		if d > m/2 {
			continue
		}
		n := float64(m - d)
		//lint:ignore floatsafe n = m − d ≥ m/2 ≥ 1 because d ≤ m/2 here and m ≥ 2
		ss := sumsq - sum*sum/n // Σ(z_j − z̄)²
		if ss < 0 {
			ss = 0 // float cancellation on a constant suffix
		}
		if stat := ss / (n * n); stat <= bestStat {
			bestD, bestStat = d, stat
		}
	}
	return bestD, bestStat
}
