package sim

import (
	"testing"

	"rsin/internal/bus"
	"rsin/internal/crossbar"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/stats"

	"rsin/internal/core"
)

// attrNets is the network zoo the attribution invariants run over: a
// circuit-switched crossbar, a shared-bus system and a packet-switched
// Omega network, so the phase decomposition is exercised under bus
// blocking, resource blocking and stage-conflict rejects alike.
func attrNets() map[string]func() core.Network {
	return map[string]func() core.Network{
		"XBAR":  func() core.Network { return crossbar.New(16, 8, 2) },
		"BUS":   func() core.Network { return bus.New(16, 8) },
		"OMEGA": func() core.Network { return omega.New(16, 2) },
	}
}

// TestCompleteEventsReconcileExactly is the attribution invariant: for
// every completed request the engine's phase decomposition must
// reconcile bit for bit — wait+block reproduces the queueing delay the
// transmit-start event reported, the left-to-right phase sum reproduces
// the response time, and the measured completions reproduce
// Result.Response exactly when fed through a fresh batch-means
// estimator.
func TestCompleteEventsReconcileExactly(t *testing.T) {
	for name, mk := range attrNets() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Lambda: 0.45, MuN: 4, MuS: 1, Seed: 1983,
				Warmup: 50, Samples: 3000, BatchSize: 100,
			}
			delayByReq := map[int64]float64{}
			var resp []float64
			cfg.Probe = obs.Func(func(e obs.Event) {
				switch e.Kind {
				case obs.KindTransmitStart:
					delayByReq[e.Req] = e.Dur
				case obs.KindComplete:
					d, ok := delayByReq[e.Req]
					if !ok {
						t.Fatalf("req %d completed without a transmit start", e.Req)
					}
					delete(delayByReq, e.Req)
					if e.Wait < 0 || e.Block < 0 || e.Tx < 0 || e.Svc < 0 {
						t.Fatalf("req %d has a negative phase: %+v", e.Req, e)
					}
					if e.Wait+e.Block != d {
						t.Fatalf("req %d: wait %v + block %v != queueing delay %v",
							e.Req, e.Wait, e.Block, d)
					}
					if ((e.Wait+e.Block)+e.Tx)+e.Svc != e.Dur {
						t.Fatalf("req %d: phase sum %v != response %v",
							e.Req, ((e.Wait+e.Block)+e.Tx)+e.Svc, e.Dur)
					}
					if e.Aux == 1 {
						resp = append(resp, e.Dur)
					}
				}
			})
			res, err := Run(mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) == 0 {
				t.Fatal("no measured completions observed")
			}
			recomputed := stats.NewBatchMeans(int64(cfg.BatchSize))
			for _, r := range resp {
				recomputed.Add(r)
			}
			if got, want := recomputed.Interval(0.95), res.Response; got != want {
				t.Fatalf("recomputed response CI %+v != Result.Response %+v", got, want)
			}
		})
	}
}

// TestAttrRecorderAgreesWithResult cross-checks the aggregated report
// against the engine's own estimates: measured count equals the
// response sample count, and the resp histogram's mean reproduces the
// batch-means point estimate (same samples, same arithmetic order up to
// the histogram's exact running sum).
func TestAttrRecorderAgreesWithResult(t *testing.T) {
	attr := obs.NewAttrRecorder(5)
	cfg := Config{
		Lambda: 0.45, MuN: 4, MuS: 1, Seed: 9,
		Warmup: 50, Samples: 2000,
		// BatchSize 1 makes every response sample its own batch, so
		// Result.Response.N counts samples and its mean is the plain
		// sample mean — directly comparable to the recorder's tallies.
		BatchSize: 1,
		Probe:     attr,
	}
	res, err := Run(crossbar.New(16, 8, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	att := attr.Report("run", nil)
	if att.Measured != res.Response.N {
		t.Fatalf("attr measured %d != response samples %d", att.Measured, res.Response.N)
	}
	if att.Completed < att.Measured {
		t.Fatalf("completed %d < measured %d", att.Completed, att.Measured)
	}
	respPhase := att.Phase("resp")
	if respPhase.Count != att.Measured {
		t.Fatalf("resp histogram count %d != measured %d", respPhase.Count, att.Measured)
	}
	relDiff := (respPhase.Mean - res.Response.Mean) / res.Response.Mean
	if relDiff < -1e-12 || relDiff > 1e-12 {
		t.Fatalf("resp histogram mean %g != Response mean %g", respPhase.Mean, res.Response.Mean)
	}
	for i := 1; i < len(att.Slowest); i++ {
		a, b := att.Slowest[i-1], att.Slowest[i]
		if a.Resp < b.Resp || (a.Resp == b.Resp && a.Req > b.Req) {
			t.Fatalf("slowest table out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestSeriesWarmupCrossCheck runs the MSER-5 truncation estimator over
// a recorded queue-length series and requires the estimated transient
// to die out inside the hand-set warmup window — the cheap statistical
// audit that the configured warmup is long enough.
func TestSeriesWarmupCrossCheck(t *testing.T) {
	const p = 16
	series := obs.NewSeriesRecorder(p, 0.5)
	series.Reserve(4096)
	cfg := Config{
		Lambda: 0.45, MuN: 4, MuS: 1, Seed: 1983,
		Warmup: 100, Samples: 4000,
		Probe: series,
	}
	res, err := Run(crossbar.New(p, 8, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := series.Finish("run", res.SimTime)
	if s.Len() < 100 {
		t.Fatalf("series too short to audit: %d samples", s.Len())
	}
	cut := stats.MSER5(s.QueueLen)
	cutTime := float64(cut) * s.Dt
	if cutTime > cfg.Warmup {
		t.Fatalf("MSER-5 estimates a %g-long transient, beyond the configured warmup %g",
			cutTime, cfg.Warmup)
	}
}
