package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/queueing"
	"rsin/internal/runner"
	"rsin/internal/sim"
)

func mustParse(t *testing.T, s string) config.Config {
	t.Helper()
	c, err := config.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildPlanQuotas(t *testing.T) {
	cfg := Config{
		Net: mustParse(t, "1024/16x64x64 XBAR/1"),
		Sim: sim.Config{Lambda: 0.1, MuN: 1, MuS: 0.1, Samples: 4800},
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Subs != 16 {
		t.Fatalf("Subs = %d, want 16", plan.Subs)
	}
	// Default batch size 4800/30 = 160 → 30 whole batches over 16 subs:
	// 14 subs get 2 batches, 2 subs get 1.
	if plan.BatchSize != 160 {
		t.Errorf("BatchSize = %d, want 160", plan.BatchSize)
	}
	total := 0
	for s, nb := range plan.Batches {
		if nb < 1 {
			t.Errorf("sub %d has %d batches, want ≥ 1", s, nb)
		}
		total += nb
	}
	if total != 30 {
		t.Errorf("total batches = %d, want 30", total)
	}
	// Quotas are dealt to the lowest subs first, monotonically
	// non-increasing.
	for s := 1; s < plan.Subs; s++ {
		if plan.Batches[s] > plan.Batches[s-1] {
			t.Errorf("quota not non-increasing at sub %d: %v", s, plan.Batches)
		}
	}
	if plan.SubNet.Processors != 64 || plan.SubNet.Networks != 1 {
		t.Errorf("SubNet = %+v, want single 64-processor network", plan.SubNet)
	}
	if plan.PidOff[3] != 3*64 || plan.PortOff[3] != 3*64 {
		t.Errorf("offsets of sub 3 = %d/%d, want 192/192", plan.PidOff[3], plan.PortOff[3])
	}
}

func TestBuildPlanGroups(t *testing.T) {
	cfg := Config{
		Net: mustParse(t, "1024/16x64x64 XBAR/1"),
		Sim: sim.Config{Lambda: 0.1, MuN: 1, MuS: 0.1, Samples: 4800},
	}
	for _, shards := range []int{0, 1, 2, 3, 8, 16, 99} {
		cfg.Shards = shards
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Groups must partition [0, Subs) contiguously in order.
		next := 0
		for _, g := range plan.Groups {
			if g[0] != next || g[1] <= g[0] {
				t.Fatalf("shards=%d: groups %v do not partition the subs", shards, plan.Groups)
			}
			next = g[1]
		}
		if next != plan.Subs {
			t.Fatalf("shards=%d: groups %v end at %d, want %d", shards, plan.Groups, next, plan.Subs)
		}
		want := shards
		if shards <= 0 || shards > plan.Subs {
			want = plan.Subs
		}
		if len(plan.Groups) != want {
			t.Errorf("shards=%d: %d groups, want %d", shards, len(plan.Groups), want)
		}
	}
}

func TestBuildPlanRejectsPresetProbe(t *testing.T) {
	cfg := Config{
		Net: mustParse(t, "16/4x4x4 XBAR/1"),
		Sim: sim.Config{Lambda: 0.1, MuN: 1, MuS: 0.1, Probe: obs.NewAttrRecorder(1)},
	}
	if _, err := BuildPlan(cfg); err == nil {
		t.Error("BuildPlan accepted a preset Sim.Probe")
	}
	cfg.Sim.Probe = nil
	cfg.Sim.ExportAccumulators = true
	if _, err := BuildPlan(cfg); err == nil {
		t.Error("BuildPlan accepted preset ExportAccumulators")
	}
}

func TestSubSeedsDecorrelated(t *testing.T) {
	cfg := Config{
		Net: mustParse(t, "1024/16x64x64 XBAR/1"),
		Sim: sim.Config{Lambda: 0.1, MuN: 1, MuS: 0.1, Samples: 4800, Seed: 7},
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{cfg.Sim.Seed: true}
	for s := 0; s < plan.Subs; s++ {
		simSeed := subConfig(cfg, plan, s, nil).Seed
		buildSeed := runner.DeriveShardSeed(cfg.Sim.Seed, s, 1)
		for _, seed := range []uint64{simSeed, buildSeed} {
			if seen[seed] {
				t.Fatalf("sub %d reuses seed %d", s, seed)
			}
			seen[seed] = true
		}
	}
}

// shardOutput runs cfg through RunSubs and Merge with a trace, an
// attribution recorder and a series recorder on every sub-network, and
// returns the four byte streams the equivalence contract covers: the
// merged Result (JSON), the merged attribution report, the merged time
// series and the merged trace.
func shardOutput(t *testing.T, cfg Config) (res, attr, series, trace []byte) {
	t.Helper()
	subs := cfg.Net.Networks
	traces := make([]*obs.Trace, subs)
	attrs := make([]*obs.AttrRecorder, subs)
	srs := make([]*obs.SeriesRecorder, subs)
	cfg.Probe = func(sub int) obs.Probe {
		traces[sub] = obs.NewTrace()
		attrs[sub] = obs.NewAttrRecorder(5)
		srs[sub] = obs.NewSeriesRecorder(cfg.Net.Inputs, 5)
		return obs.Multi(traces[sub], attrs[sub], srs[sub])
	}
	plan, results, err := RunSubs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(plan, cfg.Sim.MuS, results)
	if err != nil {
		t.Fatal(err)
	}
	res, err = json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}

	mergedAttr := obs.NewAttrRecorder(5)
	runs := make([]obs.Series, plan.Subs)
	for s := 0; s < plan.Subs; s++ {
		mergedAttr.Merge(attrs[s], s, plan.PidOff[s], plan.PortOff[s])
		runs[s] = srs[s].Finish("", results[s].SimTime)
	}
	var ab bytes.Buffer
	if err := obs.WriteAttributions(&ab, []obs.Attribution{mergedAttr.Report("equiv", nil)}); err != nil {
		t.Fatal(err)
	}
	ms, err := obs.MergeSeries("equiv", runs)
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := obs.WriteSeries(&sb, []obs.Series{ms}); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := obs.WriteTraces(&tb, obs.MergeShardTraces(traces, plan.PidOff, plan.PortOff)); err != nil {
		t.Fatal(err)
	}
	return res, ab.Bytes(), sb.Bytes(), tb.Bytes()
}

// TestShardWorkerInvariance is the sharded equivalence proof: the
// sharded run of a partitioned p=1024 config produces byte-identical
// Result/attr/series/trace output at shards ∈ {1, 2, 8} and workers ∈
// {1, 8}. Shards=1 is the monolithic baseline (one job runs every
// sub-network sequentially); every other setting must reproduce its
// bytes exactly.
func TestShardWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("p=1024 differential matrix is not short")
	}
	cfg := Config{
		Net: mustParse(t, "1024/16x64x64 XBAR/1"),
		Sim: sim.Config{
			Lambda: queueing.LambdaForIntensity(0.6, 1024, 1, 0.1, 1024), MuN: 1, MuS: 0.1,
			Seed: 11, Warmup: 50, Samples: 4800,
		},
	}
	output := func(shards, workers int) (res, attr, series, trace []byte) {
		cfg.Shards, cfg.Workers = shards, workers
		return shardOutput(t, cfg)
	}
	refRes, refAttr, refSeries, refTrace := output(1, 1)
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 8} {
			if shards == 1 && workers == 1 {
				continue
			}
			res, attr, series, trace := output(shards, workers)
			if !bytes.Equal(res, refRes) {
				t.Errorf("shards=%d workers=%d: merged Result differs from monolithic:\n%s\nvs\n%s", shards, workers, res, refRes)
			}
			if !bytes.Equal(attr, refAttr) {
				t.Errorf("shards=%d workers=%d: merged attribution differs from monolithic", shards, workers)
			}
			if !bytes.Equal(series, refSeries) {
				t.Errorf("shards=%d workers=%d: merged series differs from monolithic", shards, workers)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Errorf("shards=%d workers=%d: merged trace differs from monolithic", shards, workers)
			}
		}
	}
}

// TestTraceTracksAboveP1000 pins the trace's track layout past 1000
// processors, where processor ids reach the default port track base:
// in a classic and a sharded p=1024 run, every wait and tx slice must
// sit on a "proc" track and every svc slice on a "port" track.
func TestTraceTracksAboveP1000(t *testing.T) {
	simCfg := sim.Config{Lambda: 0.02, MuN: 1, MuS: 0.1, Seed: 5, Warmup: 10, Samples: 6000}
	classic := mustParse(t, "1024/1x1024x1024 XBAR/1")
	net, err := classic.Build(config.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	simCfg.Probe = tr
	if _, err := sim.Run(net, simCfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraces(&buf, tr); err != nil {
		t.Fatal(err)
	}
	simCfg.Probe = nil
	_, _, _, sharded := shardOutput(t, Config{Net: mustParse(t, "1024/2x512x512 XBAR/1"), Sim: simCfg, Shards: 2})
	for _, c := range []struct {
		name  string
		trace []byte
	}{{"classic", buf.Bytes()}, {"sharded", sharded}} {
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Pid  int            `json:"pid"`
				Tid  int            `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(c.trace, &doc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		track := map[[2]int]string{}
		for _, e := range doc.TraceEvents {
			if e.Name == "thread_name" {
				track[[2]int{e.Pid, e.Tid}], _ = e.Args["name"].(string)
			}
		}
		bad, highProcs := 0, 0
		for _, e := range doc.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			want := "proc "
			if e.Name == "svc" {
				want = "port "
			} else if e.Tid >= 1000 {
				highProcs++
			}
			if name := track[[2]int{e.Pid, e.Tid}]; !strings.HasPrefix(name, want) {
				if bad == 0 {
					t.Errorf("%s: %s slice on track %d named %q, want a %q track", c.name, e.Name, e.Tid, name, want)
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d slices on the wrong kind of track", c.name, bad)
		}
		if highProcs == 0 {
			t.Errorf("%s: no slice of a processor above 999; the run is too short to check the layout", c.name)
		}
	}
}

// TestShardedAgreesWithClassicEstimator pins the relationship between
// the sharded orchestrator and the classic single-event-loop run of the
// same partitioned config. They are different estimators (the classic
// run threads one RNG stream and a global stop condition through all
// partitions), so bit-equality is impossible by construction — the
// contract is statistical agreement on the steady-state quantities.
func TestShardedAgreesWithClassicEstimator(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical-agreement run is not short")
	}
	netCfg := mustParse(t, "64/8x8x8 XBAR/1")
	lambda := queueing.LambdaForIntensity(0.5, 64, 1, 0.1, 64)
	scfg := sim.Config{
		Lambda: lambda, MuN: 1, MuS: 0.1,
		Seed: 3, Warmup: 500, Samples: 60000,
	}
	net, err := netCfg.Build(config.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := sim.Run(net, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(Config{Net: netCfg, Sim: scfg})
	if err != nil {
		t.Fatal(err)
	}
	relDiff := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12) }
	if d := relDiff(sharded.Delay.Mean, classic.Delay.Mean); d > 0.15 {
		t.Errorf("Delay mean: sharded %v vs classic %v (rel diff %.3f)", sharded.Delay.Mean, classic.Delay.Mean, d)
	}
	if d := relDiff(sharded.Response.Mean, classic.Response.Mean); d > 0.10 {
		t.Errorf("Response mean: sharded %v vs classic %v (rel diff %.3f)", sharded.Response.Mean, classic.Response.Mean, d)
	}
	if d := math.Abs(sharded.Utilization - classic.Utilization); d > 0.05 {
		t.Errorf("Utilization: sharded %v vs classic %v", sharded.Utilization, classic.Utilization)
	}
	if d := relDiff(sharded.MeanQueue, classic.MeanQueue); d > 0.20 {
		t.Errorf("MeanQueue: sharded %v vs classic %v (rel diff %.3f)", sharded.MeanQueue, classic.MeanQueue, d)
	}
}

// TestClassicBlockingTelemetryMatchesSharded pins the two estimators'
// routing effort on a partitioned omega system: the classic run
// re-probes only the released sub-network's waiters, so its box visits
// per grant count the same attempts a sharded run's sub-networks make.
// A classic run that re-probed every sub-network's waiters on each
// release read 10.0 visits per grant here against the sharded 6.7.
func TestClassicBlockingTelemetryMatchesSharded(t *testing.T) {
	netCfg := mustParse(t, "1024/16x64x64 OMEGA/1")
	scfg := sim.Config{
		Lambda: queueing.LambdaForIntensity(0.8, 1024, 1, 0.1, 1024), MuN: 1, MuS: 0.1,
		Seed: 1, Warmup: 100, Samples: 20000,
	}
	net, err := netCfg.Build(config.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := sim.Run(net, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(Config{Net: netCfg, Sim: scfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	perGrant := func(tel core.Telemetry) float64 { return float64(tel.BoxVisits) / float64(tel.Grants) }
	c, s := perGrant(classic.Telemetry), perGrant(sharded.Telemetry)
	if math.Abs(c-s) > 0.1*s {
		t.Errorf("box visits per grant: classic %.3f, sharded %.3f (more than 10%% apart)", c, s)
	}
	t.Logf("box visits per grant: classic %.3f, sharded %.3f", c, s)
}

func TestMergeDetailsAndDelays(t *testing.T) {
	netCfg := mustParse(t, "8/4x2x2 OMEGA/1")
	lambda := queueing.LambdaForIntensity(0.4, 8, 1, 0.1, 8)
	res, err := Run(Config{
		Net: netCfg,
		Sim: sim.Config{
			Lambda: lambda, MuN: 1, MuS: 0.1,
			Seed: 5, Warmup: 50, Samples: 2000, CollectDelays: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Samples round to whole batches: 2000/30 = 66 per batch, 30 whole
	// batches → 1980 realized samples across the subs.
	if len(res.Delays) != 1980 {
		t.Errorf("concatenated %d delay samples, want 1980 (whole-batch quota)", len(res.Delays))
	}
	// Details must carry the same sub%02d prefixes
	// core.Partitioned.DetailCounters uses.
	seen := map[string]bool{}
	for _, c := range res.Details {
		i := strings.IndexByte(c.Name, '.')
		if i < 0 || !strings.HasPrefix(c.Name, "sub") {
			t.Fatalf("detail counter %q lacks a subNN. prefix", c.Name)
		}
		seen[c.Name[:i]] = true
	}
	for _, want := range []string{"sub00", "sub01", "sub02", "sub03"} {
		if !seen[want] {
			t.Errorf("details missing partition prefix %s (have %v)", want, seen)
		}
	}
	if res.Telemetry.Grants == 0 || res.Completed == 0 {
		t.Error("merged telemetry/completions empty")
	}
	if res.SimTime <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("merged SimTime/Utilization = %v/%v", res.SimTime, res.Utilization)
	}
}

func TestMergeErrors(t *testing.T) {
	plan := Plan{Subs: 2}
	if _, err := Merge(plan, 0.1, nil); err == nil {
		t.Error("Merge accepted wrong result count")
	}
	if _, err := Merge(plan, 0.1, []sim.Result{{}, {}}); err == nil {
		t.Error("Merge accepted results without accumulators")
	}
}
