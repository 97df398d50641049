// Package stats provides the statistical accumulators used by the RSIN
// simulations and experiment harness: streaming mean/variance (Welford),
// time-weighted averages for state variables (queue lengths,
// utilizations), batch-means confidence intervals for steady-state
// simulation output, and log2-bucket histograms.
package stats

import (
	"errors"
	"fmt"
	"math"

	"rsin/internal/linalg"
)

// ErrTimeBackwards is the sentinel wrapped by the panic TimeWeighted
// raises when observation times decrease. Feeding a time-weighted
// accumulator out of order is a programming error in the caller, so
// Set keeps panicking rather than returning an error — but it panics
// with an error value wrapping this sentinel so recovery code (the
// invariant checks in the simulator) can classify it with errors.Is.
var ErrTimeBackwards = errors.New("stats: TimeWeighted time went backwards")

// Welford accumulates a streaming sample mean and variance.
// The zero value is an empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
//
//lint:hotpath fed once per collected delay sample
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (parallel-streams merge).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	//lint:ignore floatsafe n = w.n + o.n with both counts positive on this path
	w.mean += delta * float64(o.n) / float64(n)
	//lint:ignore floatsafe n = w.n + o.n with both counts positive on this path
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// TimeWeighted accumulates the time average of a piecewise-constant
// state variable, e.g. the number of queued tasks or busy resources.
type TimeWeighted struct {
	lastT    float64
	lastV    float64
	area     float64
	started  bool
	duration float64
}

// Set records that the variable takes value v at time t. Times must be
// non-decreasing.
//
//lint:hotpath updated on every queue-length and utilization change
func (tw *TimeWeighted) Set(t, v float64) {
	if tw.started {
		if t < tw.lastT {
			panic(fmt.Errorf("%w: %v < %v", ErrTimeBackwards, t, tw.lastT))
		}
		dt := t - tw.lastT
		tw.area += dt * tw.lastV
		tw.duration += dt
	}
	tw.lastT, tw.lastV, tw.started = t, v, true
}

// Finish closes the observation window at time t without changing the
// value, and returns the time average over the observed window.
//
// Finishing an accumulator that never observed a value is a no-op
// returning 0: there is no window to close. (It used to call
// Set(t, 0), silently marking the window started at t — so a later
// Set accrued area from a time the variable was never observed.)
func (tw *TimeWeighted) Finish(t float64) float64 {
	if !tw.started {
		return 0
	}
	tw.Set(t, tw.lastV)
	return tw.Mean()
}

// Mean returns the time-averaged value observed so far.
func (tw *TimeWeighted) Mean() float64 {
	if linalg.NearZero(tw.duration, 0) {
		return 0
	}
	return tw.area / tw.duration
}

// Duration returns the length of the observed window.
func (tw *TimeWeighted) Duration() float64 { return tw.duration }

// Reset discards history but keeps the current value and time, so the
// accumulator can be reset at the end of a warmup period.
func (tw *TimeWeighted) Reset() {
	tw.area = 0
	tw.duration = 0
}

// CI is a symmetric confidence interval around a point estimate.
type CI struct {
	Mean     float64 // point estimate
	HalfWide float64 // half width; interval is Mean ± HalfWide
	N        int64   // observations (or batches) behind the estimate
}

// Lo returns the lower bound of the interval.
func (c CI) Lo() float64 { return c.Mean - c.HalfWide }

// Hi returns the upper bound of the interval.
func (c CI) Hi() float64 { return c.Mean + c.HalfWide }

// Contains reports whether x lies inside the interval.
func (c CI) Contains(x float64) bool { return x >= c.Lo() && x <= c.Hi() }

// String renders the interval as "mean ± half".
func (c CI) String() string { return fmt.Sprintf("%.6g ± %.2g", c.Mean, c.HalfWide) }

// BatchMeans divides a stream of correlated observations into fixed
// batches and applies the batch-means method to estimate a confidence
// interval for the steady-state mean.
type BatchMeans struct {
	batchSize int64
	cur       Welford
	batches   []float64
}

// NewBatchMeans returns an accumulator that groups observations into
// batches of the given size. Batch size must be positive.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add incorporates one observation.
//
//lint:hotpath
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if b.cur.N() == b.batchSize {
		//lint:ignore hotalloc Reserve pre-sizes the batch slice for the run's sample budget; pinned by TestRunSteadyStateZeroAlloc
		b.batches = append(b.batches, b.cur.Mean())
		b.cur = Welford{}
	}
}

// Reserve pre-sizes the accumulator for n completed batches, so a
// caller that knows its sample budget (the simulation kernel, whose
// steady-state event loop must not allocate) pays for the batch slice
// once up front. Reserving less than what is eventually added is
// harmless — the slice grows as usual.
func (b *BatchMeans) Reserve(n int) {
	if n > cap(b.batches) {
		grown := make([]float64, len(b.batches), n)
		copy(grown, b.batches)
		b.batches = grown
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// BatchSize returns the configured batch size.
func (b *BatchMeans) BatchSize() int64 { return b.batchSize }

// Merge combines another accumulator into b: o's completed batches are
// appended after b's, and the two in-progress partial batches are
// pooled with Welford.Merge (flushed as a batch if the pooled count
// reaches the batch size). Both accumulators must share the same batch
// size, or Merge panics.
//
// Appending is exact when both accumulators sit on a batch boundary —
// the invariant the shard orchestrator maintains by handing every
// shard a whole-batch sample quota. With partial batches the pooling
// is an approximation of stream concatenation (the partial samples are
// summarized by their mean rather than replayed), which is fine for
// the batch-means CI: batch means are exchangeable under the method's
// independence assumption. Floating-point merging is order-sensitive,
// so callers combining several shards must fold them in a canonical
// (ascending-shard) order — that order is part of the determinism
// contract, not a convenience.
func (b *BatchMeans) Merge(o *BatchMeans) {
	if b.batchSize != o.batchSize {
		panic(fmt.Sprintf("stats: merging BatchMeans with batch sizes %d and %d", b.batchSize, o.batchSize))
	}
	b.batches = append(b.batches, o.batches...)
	b.cur.Merge(&o.cur)
	if b.cur.N() >= b.batchSize {
		b.batches = append(b.batches, b.cur.Mean())
		b.cur = Welford{}
	}
}

// Interval returns a Student-t confidence interval at the given
// confidence level (e.g. 0.95) using the completed batches. With fewer
// than two batches the half width is +Inf.
func (b *BatchMeans) Interval(level float64) CI {
	var w Welford
	for _, m := range b.batches {
		w.Add(m)
	}
	ci := CI{Mean: w.Mean(), N: w.N()}
	if w.N() < 2 {
		ci.HalfWide = math.Inf(1)
		return ci
	}
	t := tQuantile(level, int(w.N()-1))
	ci.HalfWide = t * w.StdDev() / math.Sqrt(float64(w.N()))
	return ci
}

// tQuantile returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom, via a lookup table for small
// df and the normal quantile beyond it. Accuracy is more than adequate
// for simulation CIs.
func tQuantile(level float64, df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	type row struct{ t90, t95, t99 float64 }
	table := []row{
		{6.314, 12.706, 63.657}, {2.920, 4.303, 9.925}, {2.353, 3.182, 5.841},
		{2.132, 2.776, 4.604}, {2.015, 2.571, 4.032}, {1.943, 2.447, 3.707},
		{1.895, 2.365, 3.499}, {1.860, 2.306, 3.355}, {1.833, 2.262, 3.250},
		{1.812, 2.228, 3.169}, {1.796, 2.201, 3.106}, {1.782, 2.179, 3.055},
		{1.771, 2.160, 3.012}, {1.761, 2.145, 2.977}, {1.753, 2.131, 2.947},
		{1.746, 2.120, 2.921}, {1.740, 2.110, 2.898}, {1.734, 2.101, 2.878},
		{1.729, 2.093, 2.861}, {1.725, 2.086, 2.845}, {1.721, 2.080, 2.831},
		{1.717, 2.074, 2.819}, {1.714, 2.069, 2.807}, {1.711, 2.064, 2.797},
		{1.708, 2.060, 2.787}, {1.706, 2.056, 2.779}, {1.703, 2.052, 2.771},
		{1.701, 2.048, 2.763}, {1.699, 2.045, 2.756}, {1.697, 2.042, 2.750},
	}
	pick := func(r row) float64 {
		switch {
		case level <= 0.90:
			return r.t90
		case level <= 0.95:
			return r.t95
		default:
			return r.t99
		}
	}
	if df <= len(table) {
		return pick(table[df-1])
	}
	// Large df: normal quantiles.
	switch {
	case level <= 0.90:
		return 1.645
	case level <= 0.95:
		return 1.960
	default:
		return 2.576
	}
}

// Log2Histogram is a fixed-log2-bucket histogram: bucket i counts
// observations in [2^(minExp+i), 2^(minExp+i+1)). Exponential bucketing
// gives constant relative resolution across the many decades a queueing
// delay distribution spans, with a fixed memory footprint and no
// data-dependent bucket boundaries — so two deterministic runs fill
// byte-identical histograms. Observations below 2^minExp (including the
// exact zeros of immediately-granted requests) land in the underflow
// bucket; observations at or above 2^maxExp land in the overflow bucket.
type Log2Histogram struct {
	minExp  int
	lo      float64 // 2^minExp, the lower edge of bucket 0
	buckets []int64
	under   int64
	over    int64
	total   int64
	sum     float64
}

// NewLog2Histogram returns a histogram spanning [2^minExp, 2^maxExp)
// with one bucket per binary order of magnitude. maxExp must exceed
// minExp, and the span must lie within the normal float64 exponents:
// −1022 ≤ minExp and maxExp ≤ 1024.
func NewLog2Histogram(minExp, maxExp int) *Log2Histogram {
	if maxExp <= minExp {
		panic("stats: Log2Histogram needs maxExp > minExp")
	}
	if minExp < -1022 || maxExp > 1024 {
		panic("stats: Log2Histogram needs -1022 <= minExp and maxExp <= 1024")
	}
	return &Log2Histogram{
		minExp:  minExp,
		lo:      math.Ldexp(1, minExp),
		buckets: make([]int64, maxExp-minExp),
	}
}

// Add incorporates one observation.
//
//lint:hotpath
func (h *Log2Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x < h.lo {
		h.under++
		return
	}
	// x ≥ 2^minExp ≥ 2^-1022 is normal, so its biased exponent field is
	// floor(log2 x) + 1023. +Inf and NaN read exponent 1024, past every
	// bucket since maxExp ≤ 1024, so they count as overflow.
	i := int(math.Float64bits(x)>>52&0x7ff) - 1023 - h.minExp
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// N returns the total number of observations.
func (h *Log2Histogram) N() int64 { return h.total }

// Sum returns the running sum of all observations.
func (h *Log2Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean of all observations.
func (h *Log2Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Under returns the underflow count (observations below 2^minExp).
func (h *Log2Histogram) Under() int64 { return h.under }

// Over returns the overflow count (observations at or above 2^maxExp).
func (h *Log2Histogram) Over() int64 { return h.over }

// NumBuckets returns the number of interior buckets.
func (h *Log2Histogram) NumBuckets() int { return len(h.buckets) }

// Bucket returns the count in bucket i.
func (h *Log2Histogram) Bucket(i int) int64 { return h.buckets[i] }

// BucketBounds returns bucket i's half-open range [lo, hi).
func (h *Log2Histogram) BucketBounds(i int) (lo, hi float64) {
	return math.Ldexp(1, h.minExp+i), math.Ldexp(1, h.minExp+i+1)
}

// Quantile returns an approximate q-quantile (0 ≤ q ≤ 1): the geometric
// midpoint of the bucket holding the target rank, with underflow
// attributed to zero and overflow to the upper edge.
func (h *Log2Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(q * float64(h.total))
	c := h.under
	if c > target {
		return 0
	}
	for i, b := range h.buckets {
		c += b
		if c > target {
			lo, hi := h.BucketBounds(i)
			return math.Sqrt(lo * hi)
		}
	}
	return math.Ldexp(1, h.minExp+len(h.buckets))
}

// Merge combines another histogram into h. Both must share the same
// bucket layout.
func (h *Log2Histogram) Merge(o *Log2Histogram) {
	if h.minExp != o.minExp || len(h.buckets) != len(o.buckets) {
		panic("stats: merging Log2Histograms with different layouts")
	}
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
	h.under += o.under
	h.over += o.over
	h.total += o.total
	h.sum += o.sum
}
