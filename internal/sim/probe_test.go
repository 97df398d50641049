package sim

import (
	"bytes"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/crossbar"
	"rsin/internal/obs"
	"rsin/internal/omega"
)

func probeCfg(seed uint64) Config {
	return Config{
		Lambda:  0.4,
		MuN:     4,
		MuS:     1,
		Seed:    seed,
		Warmup:  50,
		Samples: 4000,
	}
}

// eventCounts tallies lifecycle events by kind, plus the in-network
// rejects they report: a rerouted grant's Aux and a rejected attempt's.
type eventCounts struct {
	kinds   map[obs.Kind]int64
	rejects int64
}

// probe returns an obs.Func feeding c from a fresh tally.
func (c *eventCounts) probe() obs.Probe {
	c.kinds = map[obs.Kind]int64{}
	return obs.Func(func(e obs.Event) {
		c.kinds[e.Kind]++
		if e.Kind == obs.KindGrant || e.Kind == obs.KindReject {
			c.rejects += e.Aux
		}
	})
}

func TestProbeDoesNotChangeResults(t *testing.T) {
	base, err := Run(crossbar.New(8, 4, 2), probeCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	var counts eventCounts
	cfg := probeCfg(7)
	cfg.Probe = counts.probe()
	probed, err := Run(crossbar.New(8, 4, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Delay != probed.Delay || base.Completed != probed.Completed ||
		base.Telemetry != probed.Telemetry {
		t.Fatalf("attaching a probe changed the simulation:\nbase   %+v\nprobed %+v", base, probed)
	}
}

func TestProbeLifecycleIsConsistent(t *testing.T) {
	var counts eventCounts
	cfg := probeCfg(11)
	cfg.Probe = counts.probe()
	res, err := Run(crossbar.New(8, 4, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, grants := counts.kinds[obs.KindArrival], counts.kinds[obs.KindGrant]
	txDone, released := counts.kinds[obs.KindTransmitEnd], counts.kinds[obs.KindRelease]
	if arrivals == 0 || grants == 0 {
		t.Fatalf("no lifecycle flow recorded: arrivals=%d grants=%d", arrivals, grants)
	}
	// Every grant begins a transmission; completions trail by in-flight.
	if txDone > grants || released > txDone {
		t.Errorf("lifecycle out of order: grants=%d txDone=%d released=%d", grants, txDone, released)
	}
	if grants-txDone > 8 || txDone-released > 8 {
		t.Errorf("more in-flight tasks than processors: grants=%d txDone=%d released=%d", grants, txDone, released)
	}
	// The probe sees the whole run (including warmup); the engine's
	// grant telemetry must agree with the probe's grant count.
	if res.Telemetry.Grants != grants {
		t.Errorf("probe grants %d != telemetry grants %d", grants, res.Telemetry.Grants)
	}
}

func TestProbeObservesOmegaRejects(t *testing.T) {
	var counts eventCounts
	cfg := Config{
		Lambda:  0.9, // drive hard enough to force in-network rejects
		MuN:     2,
		MuS:     1,
		Seed:    3,
		Warmup:  10,
		Samples: 5000,
		Probe:   counts.probe(),
	}
	res, err := Run(omega.New(16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Rejects == 0 {
		t.Skip("workload produced no in-network rejects; nothing to check")
	}
	if counts.rejects != res.Telemetry.Rejects {
		t.Errorf("probe saw %d rejects, network telemetry counted %d",
			counts.rejects, res.Telemetry.Rejects)
	}
}

func TestTraceBytesIdenticalAcrossRuns(t *testing.T) {
	render := func() []byte {
		tr := obs.NewTrace()
		cfg := probeCfg(19)
		cfg.Samples = 500
		cfg.Probe = tr
		if _, err := Run(bus.New(8, 4), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraces(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace bytes")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

func TestResultDetailsExposed(t *testing.T) {
	res, err := Run(crossbar.New(8, 4, 2), probeCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Details) == 0 {
		t.Fatal("crossbar run returned no detail counters")
	}
	byName := map[string]int64{}
	for _, c := range res.Details {
		byName[c.Name] = c.Value
	}
	if byName["xbar.cells_swept"] == 0 {
		t.Errorf("cells_swept missing or zero: %v", res.Details)
	}
	var portSum int64
	for name, v := range byName {
		if len(name) > 16 && name[:16] == "xbar.port_grants" {
			portSum += v
		}
	}
	if portSum != res.Telemetry.Grants {
		t.Errorf("per-port grants sum %d != total grants %d", portSum, res.Telemetry.Grants)
	}
}
