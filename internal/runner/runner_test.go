package runner

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rsin/internal/obs"
	"rsin/internal/rng"
)

func TestMapCollectsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 16, 100} {
		got := Map(Options{Workers: workers}, 25, func(i int) int { return i * i })
		if len(got) != 25 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(Options{}, 0, func(i int) int { return i }); got != nil {
		t.Errorf("n=0 returned %v, want nil", got)
	}
	if got := Map(Options{}, -3, func(i int) int { return i }); got != nil {
		t.Errorf("n<0 returned %v, want nil", got)
	}
}

// TestMapDeterministicAcrossWorkerCounts drives jobs whose completion
// order is deliberately scrambled (index-dependent sleeps) and whose
// values come from per-index derived random streams: every worker
// count must produce the identical result slice.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 40
	job := func(i int) uint64 {
		time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
		src := rng.New(DeriveSeed(99, i, 0))
		var sum uint64
		for k := 0; k < 100; k++ {
			sum += src.Uint64()
		}
		return sum
	}
	want := Map(Options{Workers: 1}, n, job)
	for _, workers := range []int{2, 4, 8} {
		got := Map(Options{Workers: workers}, n, job)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs from workers=1", workers, i)
			}
		}
	}
}

func TestMapConcurrencyBounded(t *testing.T) {
	var cur, peak atomic64max
	Map(Options{Workers: 3}, 30, func(i int) int {
		c := cur.add(1)
		peak.max(c)
		time.Sleep(time.Millisecond)
		cur.add(-1)
		return i
	})
	if p := peak.load(); p > 3 {
		t.Errorf("observed %d concurrent jobs, worker cap is 3", p)
	}
}

// atomic64max is a tiny helper tracking a running value and its peak.
type atomic64max struct {
	mu   sync.Mutex
	v, p int64
}

func (a *atomic64max) add(d int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v += d
	return a.v
}

func (a *atomic64max) max(c int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c > a.p {
		a.p = c
	}
}

func (a *atomic64max) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.p
}

func TestProgressReporting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var dones []int
		total := -1
		Map(Options{
			Workers: workers,
			Progress: func(done, n int) {
				mu.Lock()
				defer mu.Unlock()
				dones = append(dones, done)
				total = n
			},
		}, 17, func(i int) int { return i })
		if total != 17 {
			t.Fatalf("workers=%d: total = %d, want 17", workers, total)
		}
		// Parallel delivery may drop counts that went stale while another
		// worker held the lock, so the sequence is strictly increasing
		// rather than gap-free — but it always ends at n.
		if len(dones) == 0 || dones[len(dones)-1] != 17 {
			t.Fatalf("workers=%d: progress sequence %v does not end at 17", workers, dones)
		}
		for k := 1; k < len(dones); k++ {
			if dones[k] <= dones[k-1] {
				t.Fatalf("workers=%d: progress done sequence %v not strictly increasing", workers, dones)
			}
		}
		if workers == 1 && len(dones) != 17 {
			t.Fatalf("workers=1: %d progress calls, want all 17 (sequential delivery is exact)", len(dones))
		}
	}
}

// TestMapProgressMonotonicUnderContention pins the fix for out-of-order
// progress delivery, surfaced while certifying the worker loop:
// incrementing done and invoking the callback are separate steps, so
// without the monotonic guard a worker holding a stale count could
// deliver it after a later one — the observed counter regressed and the
// final report could fall short of n.
func TestMapProgressMonotonicUnderContention(t *testing.T) {
	const n = 5000
	var mu sync.Mutex
	last, regressions, final := 0, 0, -1
	Map(Options{
		Workers: 8,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= last {
				regressions++
			}
			last = done
			final = done
		},
	}, n, func(i int) int { return i })
	if regressions > 0 {
		t.Errorf("progress counter regressed %d times", regressions)
	}
	if final != n {
		t.Errorf("final progress report = %d, want %d", final, n)
	}
}

func TestSinkProgressFinishesLine(t *testing.T) {
	var sb strings.Builder
	p := SinkProgress(obs.NewSink(&sb), "sweep")
	p(1, 2)
	p(2, 2)
	out := sb.String()
	if !strings.Contains(out, "sweep: 1/2") || !strings.Contains(out, "sweep: 2/2 done in") {
		t.Errorf("progress output %q missing expected lines", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("progress should end the line on completion")
	}
}

func TestTelemetryRecordsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tel := NewTelemetry()
		Map(Options{Workers: workers, Telemetry: tel}, 12, func(i int) int {
			time.Sleep(time.Millisecond)
			return i
		})
		jobs := tel.Jobs()
		if len(jobs) != 12 {
			t.Fatalf("workers=%d: %d timings recorded, want 12", workers, len(jobs))
		}
		for k, j := range jobs {
			if j.Job != k {
				t.Fatalf("workers=%d: Jobs() not sorted by index: %v", workers, jobs)
			}
			if j.End < j.Start {
				t.Errorf("workers=%d: job %d ends before it starts: %+v", workers, k, j)
			}
			if j.Worker < 0 || j.Worker >= 4 {
				t.Errorf("workers=%d: job %d ran on out-of-range worker %d", workers, k, j.Worker)
			}
		}
		s := tel.Summary()
		if s.Jobs != 12 || s.Workers < 1 || s.Workers > workers {
			t.Errorf("workers=%d: summary %+v", workers, s)
		}
		if s.Occupancy <= 0 || s.Occupancy > 1.000001 {
			t.Errorf("workers=%d: occupancy %g outside (0,1]", workers, s.Occupancy)
		}
	}
}

func TestTelemetryDoesNotChangeResults(t *testing.T) {
	job := func(i int) uint64 { return rng.New(DeriveSeed(5, i, 0)).Uint64() }
	plain := Map(Options{Workers: 3}, 20, job)
	tel := NewTelemetry()
	traced := Map(Options{Workers: 3, Telemetry: tel}, 20, job)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("slot %d: telemetry changed the result", i)
		}
	}
}

func TestTelemetryWriteTrace(t *testing.T) {
	tel := NewTelemetry()
	Map(Options{Workers: 2, Telemetry: tel}, 5, func(i int) int {
		time.Sleep(time.Millisecond)
		return i
	})
	var sb strings.Builder
	if err := obs.WriteTraceJSON(&sb, tel.TraceEvents(0, "runner", 0)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"runner"`, `"job 0"`, `"job 4"`, `"ph":"X"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

// TestDeriveSeedDistinct checks that distinct (base, point, rep)
// triples yield distinct seeds over a grid far larger than any sweep
// in the repository.
func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64][3]int, 3*200*8)
	for _, base := range []uint64{0, 1, 2, 0xdeadbeef} {
		for point := 0; point < 200; point++ {
			for rep := 0; rep < 8; rep++ {
				s := DeriveSeed(base, point, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: base=%d (%d,%d) vs %v", base, point, rep, prev)
				}
				seen[s] = [3]int{int(base), point, rep}
			}
		}
	}
}

// TestDeriveSeedSensitivity: changing any single coordinate of the
// triple must change the seed (no coordinate is ignored).
func TestDeriveSeedSensitivity(t *testing.T) {
	ref := DeriveSeed(7, 3, 2)
	if DeriveSeed(8, 3, 2) == ref {
		t.Error("seed insensitive to base")
	}
	if DeriveSeed(7, 4, 2) == ref {
		t.Error("seed insensitive to point")
	}
	if DeriveSeed(7, 3, 3) == ref {
		t.Error("seed insensitive to rep")
	}
	// Point/rep must not be interchangeable.
	if DeriveSeed(7, 2, 3) == DeriveSeed(7, 3, 2) {
		t.Error("point and rep axes collapse")
	}
}

// TestDeriveShardSeedDistinct: the shard axis must produce seeds that
// collide neither with each other nor with any (point, rep) seed
// DeriveSeed yields from the same base — the property that lets a
// sharded run coexist with sweep replications of the same experiment.
func TestDeriveShardSeedDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	note := func(s uint64, who string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s vs %s", who, prev)
		}
		seen[s] = who
	}
	for _, base := range []uint64{0, 1, 0xdeadbeef} {
		for i := 0; i < 200; i++ {
			for rep := 0; rep < 4; rep++ {
				note(DeriveSeed(base, i, rep), "DeriveSeed")
				note(DeriveShardSeed(base, i, rep), "DeriveShardSeed")
			}
		}
	}
}

// TestDeriveShardSeedSensitivity mirrors the DeriveSeed axis checks.
func TestDeriveShardSeedSensitivity(t *testing.T) {
	ref := DeriveShardSeed(7, 3, 2)
	if DeriveShardSeed(8, 3, 2) == ref {
		t.Error("seed insensitive to base")
	}
	if DeriveShardSeed(7, 4, 2) == ref {
		t.Error("seed insensitive to shard")
	}
	if DeriveShardSeed(7, 3, 3) == ref {
		t.Error("seed insensitive to rep")
	}
	if DeriveShardSeed(7, 2, 3) == DeriveShardSeed(7, 3, 2) {
		t.Error("shard and rep axes collapse")
	}
}

// TestDerivedStreamsNonOverlapping draws 10⁶ values across several
// derived xoshiro streams and checks that no 64-bit output appears in
// two different streams — the collision smoke test for stream
// independence. (For truly random 64-bit draws the chance of any
// collision over 10⁶ values is ≈ 2.7e-8, so a single hit indicates
// overlapping or correlated streams.)
func TestDerivedStreamsNonOverlapping(t *testing.T) {
	const streams = 4
	const draws = 250000
	seen := make(map[uint64]int, streams*draws)
	for s := 0; s < streams; s++ {
		src := rng.New(DeriveSeed(1, s, 0))
		for k := 0; k < draws; k++ {
			v := src.Uint64()
			if prev, dup := seen[v]; dup && prev != s {
				t.Fatalf("streams %d and %d share output %#x", prev, s, v)
			}
			seen[v] = s
		}
	}
}

// TestDerivedStreamsUncorrelated is the correlation smoke test: the
// lag-0 cross-correlation of the uniform streams of adjacent points
// (and of adjacent reps) must be statistically indistinguishable from
// zero. For n=100000 iid uniforms the correlation estimator has
// σ ≈ 1/√n ≈ 0.0032; 5σ keeps false failures negligible.
func TestDerivedStreamsUncorrelated(t *testing.T) {
	const n = 100000
	corr := func(a, b *rng.Source) float64 {
		var sa, sb, saa, sbb, sab float64
		for k := 0; k < n; k++ {
			x, y := a.Float64(), b.Float64()
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		return cov / math.Sqrt(va*vb)
	}
	pairs := [][2]uint64{
		{DeriveSeed(1, 0, 0), DeriveSeed(1, 1, 0)}, // adjacent points
		{DeriveSeed(1, 0, 0), DeriveSeed(1, 0, 1)}, // adjacent reps
		{DeriveSeed(1, 5, 0), DeriveSeed(2, 5, 0)}, // same point, different base
	}
	for i, p := range pairs {
		if c := corr(rng.New(p[0]), rng.New(p[1])); math.Abs(c) > 5.0/math.Sqrt(n) {
			t.Errorf("pair %d: cross-correlation %g beyond 5σ", i, c)
		}
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Map(Options{Workers: workers}, 64, func(j int) int { return j })
			}
		})
	}
}
