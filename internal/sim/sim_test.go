package sim

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/markov"
	"rsin/internal/queueing"
)

func TestRunDeterminism(t *testing.T) {
	cfg := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 42, Warmup: 100, Samples: 5000}
	r1, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delay.Mean != r2.Delay.Mean || r1.Completed != r2.Completed {
		t.Errorf("same seed gave different results: %+v vs %+v", r1, r2)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Warmup: 100, Samples: 5000}
	cfg.Seed = 1
	r1, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	r2, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delay.Mean == r2.Delay.Mean {
		t.Error("different seeds gave bit-identical delay (suspicious)")
	}
}

// TestSimMatchesMarkovSBUS is the keystone cross-validation: the
// discrete-event simulator driving a single shared bus must agree with
// the exact Markov-chain solution of Section III.
func TestSimMatchesMarkovSBUS(t *testing.T) {
	cases := []markov.Params{
		{P: 16, Lambda: 0.03, MuN: 1, MuS: 0.1, R: 32},
		{P: 16, Lambda: 0.05, MuN: 1, MuS: 0.1, R: 32},
		{P: 4, Lambda: 0.1, MuN: 1, MuS: 1, R: 4},
		{P: 1, Lambda: 0.3, MuN: 1, MuS: 1, R: 2},
	}
	for _, mp := range cases {
		want, err := markov.SolveMatrixGeometric(mp)
		if err != nil {
			t.Fatalf("%+v: %v", mp, err)
		}
		got, err := Run(bus.New(mp.P, mp.R), Config{
			Lambda: mp.Lambda, MuN: mp.MuN, MuS: mp.MuS,
			Seed: 7, Warmup: 2000, Samples: 300000,
		})
		if err != nil {
			t.Fatalf("%+v: %v", mp, err)
		}
		// The simulation CI should cover the analytic value (allow 3x
		// the half width for batch-means bias).
		slack := 3*got.Delay.HalfWide + 0.02*want.Delay + 1e-9
		if math.Abs(got.Delay.Mean-want.Delay) > slack {
			t.Errorf("%+v: sim delay %v (±%v), markov %v", mp, got.Delay.Mean, got.Delay.HalfWide, want.Delay)
		}
	}
}

// TestSimMatchesMM1 validates the engine against the closed-form M/M/1
// queue using a single-processor bus with abundant resources.
func TestSimMatchesMM1(t *testing.T) {
	got, err := Run(bus.New(1, 200), Config{
		Lambda: 0.7, MuN: 1, MuS: 1000,
		Seed: 3, Warmup: 5000, Samples: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MM1WaitingTime(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Delay.Mean-want) > 3*got.Delay.HalfWide+0.03*want {
		t.Errorf("sim %v (±%v), M/M/1 Wq %v", got.Delay.Mean, got.Delay.HalfWide, want)
	}
}

// TestSimMatchesMMc validates the engine against M/M/c using a crossbar
// with one resource per port and near-instant transmission: each port is
// then simply one of c parallel servers.
func TestSimMatchesMMc(t *testing.T) {
	const c = 4
	got, err := Run(crossbar.New(8, c, 1), Config{
		Lambda: 0.4, MuN: 5000, MuS: 1,
		Seed: 5, Warmup: 3000, Samples: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MMcWaitingTime(3.2, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Delay.Mean-want) > 3*got.Delay.HalfWide+0.05*want {
		t.Errorf("sim %v (±%v), M/M/%d Wq %v", got.Delay.Mean, got.Delay.HalfWide, c, want)
	}
}

func TestZeroLambdaTerminates(t *testing.T) {
	res, err := Run(bus.New(2, 2), Config{Lambda: 0, MuN: 1, MuS: 1, Samples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Errorf("Completed = %d, want 0", res.Completed)
	}
}

func TestSaturationDetection(t *testing.T) {
	// Offered load far above capacity must trip the queue cap instead
	// of hanging.
	_, err := Run(bus.New(4, 1), Config{
		Lambda: 10, MuN: 1, MuS: 1, Samples: 1 << 30, MaxQueue: 1000,
	})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

// TestInvalidRates pins the up-front rejection of every unusable
// rate: negative or NaN arrival rates, non-positive or NaN service
// rates, and any infinite rate. A non-finite warmup is rejected with
// them: a NaN or +Inf one never ends, so the run would never return.
func TestInvalidRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero MuN", Config{Lambda: 1, MuN: 0, MuS: 1}},
		{"negative Lambda", Config{Lambda: -1, MuN: 1, MuS: 1}},
		{"NaN Lambda", Config{Lambda: nan, MuN: 1, MuS: 1}},
		{"Inf Lambda", Config{Lambda: inf, MuN: 1, MuS: 1}},
		{"NaN MuN", Config{Lambda: 1, MuN: nan, MuS: 1}},
		{"Inf MuN", Config{Lambda: 1, MuN: inf, MuS: 1}},
		{"NaN MuS", Config{Lambda: 1, MuN: 1, MuS: nan}},
		{"Inf MuS", Config{Lambda: 1, MuN: 1, MuS: inf}},
		{"NaN Lambdas entry", Config{Lambdas: []float64{0.1, nan}, MuN: 1, MuS: 1}},
		{"Inf Lambdas entry", Config{Lambdas: []float64{inf, 0.1}, MuN: 1, MuS: 1}},
		{"NaN Warmup", Config{Lambda: 1, MuN: 1, MuS: 1, Warmup: nan}},
		{"Inf Warmup", Config{Lambda: 1, MuN: 1, MuS: 1, Warmup: inf}},
		{"-Inf Warmup", Config{Lambda: 1, MuN: 1, MuS: 1, Warmup: -inf}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Samples = 10
			_, err := Run(bus.New(2, 2), tc.cfg)
			if err == nil || !strings.HasPrefix(err.Error(), "sim: invalid") {
				t.Errorf("err = %v, want a \"sim: invalid\" error", err)
			}
		})
	}
}

// sizedNet is a neverNet that also claims a resource count.
type sizedNet struct {
	neverNet
	res int
}

func (n *sizedNet) TotalResources() int { return n.res }

// TestRunRejectsOversizedNetwork pins the int32 bound on the indexes
// events carry: a network with more processors or resources than
// math.MaxInt32 is rejected before Run allocates per-processor state,
// which at that size would exhaust memory.
func TestRunRejectsOversizedNetwork(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	for _, n := range []*sizedNet{
		{neverNet: neverNet{procs: math.MaxInt}, res: 1},
		{neverNet: neverNet{procs: 2}, res: math.MaxInt},
	} {
		_, err := Run(n, Config{Lambda: 1, MuN: 1, MuS: 1, Samples: 10})
		if err == nil || !strings.HasPrefix(err.Error(), "sim: network too large") {
			t.Errorf("%d processors, %d resources: err = %v, want the too-large error",
				n.Processors(), n.TotalResources(), err)
		}
	}
}

// misattributingNet grants like a bus but stamps every grant with
// processor 0.
type misattributingNet struct{ *bus.Bus }

func (n misattributingNet) Acquire(pid int) (core.Grant, bool) {
	g, ok := n.Bus.Acquire(pid)
	g.Processor = 0
	return g, ok
}

// TestRunRejectsMisattributedGrant pins the invariant check behind the
// kernel's reliance on core.Grant.Processor: a transmission's end is
// routed to the grant's processor, so a grant stamped with another
// processor is a model bug, reported instead of corrupting state.
func TestRunRejectsMisattributedGrant(t *testing.T) {
	_, err := Run(misattributingNet{bus.New(4, 4)}, Config{Lambda: 0.1, MuN: 1, MuS: 1, Seed: 1, Samples: 100})
	if !invariant.Is(err) {
		t.Fatalf("err = %v, want an invariant violation", err)
	}
}

func TestUtilizationMatchesThroughput(t *testing.T) {
	// Port busy fraction should equal Λ/μn for a stable single bus
	// (each completed task holds the bus for 1/μn on average).
	cfg := Config{Lambda: 0.04, MuN: 1, MuS: 0.1, Seed: 11, Warmup: 2000, Samples: 100000}
	res, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * cfg.Lambda / cfg.MuN
	if math.Abs(res.Utilization-want) > 0.03 {
		t.Errorf("utilization %v, want ≈ %v", res.Utilization, want)
	}
}

func TestWakePolicies(t *testing.T) {
	for _, pol := range []WakePolicy{WakeIndexOrder, WakeRandom, WakeRoundRobin} {
		t.Run(pol.String(), func(t *testing.T) {
			res, err := Run(crossbar.New(16, 8, 2), Config{
				Lambda: 0.05, MuN: 1, MuS: 1,
				Seed: 9, Warmup: 500, Samples: 20000, WakePolicy: pol,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Delay.Mean < 0 {
				t.Errorf("negative delay %v", res.Delay.Mean)
			}
			if res.Completed == 0 {
				t.Error("no completions")
			}
		})
	}
}

func TestMeanQueueLittlesLaw(t *testing.T) {
	// Little's law on the waiting room: E[l] = Λ·d.
	cfg := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 13, Warmup: 3000, Samples: 200000}
	res, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lam := 16 * cfg.Lambda
	want := lam * res.Delay.Mean
	if math.Abs(res.MeanQueue-want) > 0.1*want+0.02 {
		t.Errorf("mean queue %v, Little's law predicts %v", res.MeanQueue, want)
	}
}

func TestPartitionedSystem(t *testing.T) {
	// Two independent 8-processor buses behave like two copies of the
	// single-bus analysis.
	subs := []core.Network{bus.New(8, 16), bus.New(8, 16)}
	net := core.NewPartitioned(subs)
	if net.Processors() != 16 || net.TotalResources() != 32 || net.Ports() != 2 {
		t.Fatalf("partitioned accessors wrong: %d %d %d", net.Processors(), net.TotalResources(), net.Ports())
	}
	got, err := Run(net, Config{
		Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 17, Warmup: 2000, Samples: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := markov.SolveMatrixGeometric(markov.Params{P: 8, Lambda: 0.05, MuN: 1, MuS: 0.1, R: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Delay.Mean-want.Delay) > 3*got.Delay.HalfWide+0.02*want.Delay+1e-9 {
		t.Errorf("partitioned sim %v (±%v), markov %v", got.Delay.Mean, got.Delay.HalfWide, want.Delay)
	}
}

func TestResponseTimeDecomposition(t *testing.T) {
	// Response time = queueing delay + transmission + service, so in
	// steady state E[resp] ≈ d + 1/μn + 1/μs.
	cfg := Config{Lambda: 0.04, MuN: 1, MuS: 0.1, Seed: 31, Warmup: 2000, Samples: 200000}
	res, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Delay.Mean + 1/cfg.MuN + 1/cfg.MuS
	if math.Abs(res.Response.Mean-want) > 3*res.Response.HalfWide+0.05*want {
		t.Errorf("response %v, want ≈ %v (delay %v + 1/μn + 1/μs)",
			res.Response.Mean, want, res.Delay.Mean)
	}
}

func TestRetryJitter(t *testing.T) {
	// With jittered retries the system still reaches steady state and
	// measures a sane (somewhat larger) delay: the retry delay adds to
	// the queueing time.
	base := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 41, Warmup: 2000, Samples: 100000}
	plain, err := Run(bus.New(16, 32), base)
	if err != nil {
		t.Fatal(err)
	}
	jit := base
	jit.RetryJitter = 0.5
	jittered, err := Run(bus.New(16, 32), jit)
	if err != nil {
		t.Fatal(err)
	}
	if jittered.Completed == 0 {
		t.Fatal("jittered run completed nothing")
	}
	if jittered.Delay.Mean < plain.Delay.Mean {
		t.Errorf("jittered delay %v below immediate-retry delay %v (jitter can only add waiting)",
			jittered.Delay.Mean, plain.Delay.Mean)
	}
}

func TestCollectDelays(t *testing.T) {
	cfg := Config{
		Lambda: 0.05, MuN: 1, MuS: 0.1,
		Seed: 51, Warmup: 500, Samples: 20000, CollectDelays: true,
	}
	res, err := Run(bus.New(16, 32), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != cfg.Samples {
		t.Fatalf("collected %d delays, want %d", len(res.Delays), cfg.Samples)
	}
}

func TestPerProcessorRates(t *testing.T) {
	// Uniform Lambdas must reproduce the scalar-Lambda run exactly.
	base := Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 21, Warmup: 500, Samples: 20000}
	r1, err := Run(bus.New(16, 32), base)
	if err != nil {
		t.Fatal(err)
	}
	withSlice := base
	withSlice.Lambdas = make([]float64, 16)
	for i := range withSlice.Lambdas {
		withSlice.Lambdas[i] = 0.05
	}
	r2, err := Run(bus.New(16, 32), withSlice)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delay.Mean != r2.Delay.Mean {
		t.Errorf("uniform Lambdas diverged from scalar Lambda: %v vs %v", r1.Delay.Mean, r2.Delay.Mean)
	}
}

func TestPerProcessorRatesValidation(t *testing.T) {
	if _, err := Run(bus.New(4, 4), Config{Lambdas: []float64{0.1, 0.1}, MuN: 1, MuS: 1, Samples: 10}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Run(bus.New(2, 2), Config{Lambdas: []float64{0.1, -1}, MuN: 1, MuS: 1, Samples: 10}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestHotColdProcessors(t *testing.T) {
	// A processor with zero arrivals contributes nothing; a hot one
	// still completes work.
	lams := make([]float64, 8)
	lams[0] = 0.5
	res, err := Run(crossbar.New(8, 8, 1), Config{
		Lambdas: lams, MuN: 1, MuS: 1, Seed: 3, Warmup: 200, Samples: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("hot processor completed nothing")
	}
}

func BenchmarkSimSBUS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(bus.New(16, 32), Config{
			Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 1, Warmup: 100, Samples: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
