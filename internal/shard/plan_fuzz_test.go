package shard

import (
	"reflect"
	"testing"

	"rsin/internal/config"
	"rsin/internal/sim"
)

// FuzzBuildPlan decodes a configuration shape, a sample budget, a batch
// size and a shard count, and checks every plan BuildPlan accepts: the
// job groups tile the sub-networks in order, the batch quotas are at
// least one each and sum to the budget in whole batches (never below
// one per sub-network), the id offsets lift each sub-network into the
// global namespace, and the plan is a pure function of its input.
func FuzzBuildPlan(f *testing.F) {
	f.Add(uint8(16), uint8(64), uint8(64), uint8(config.XBAR), uint8(1), int64(64000), int64(1000), int64(8))
	f.Add(uint8(8), uint8(2), uint8(2), uint8(config.OMEGA), uint8(2), int64(0), int64(0), int64(0))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(config.SBUS), uint8(2), int64(20), int64(7), int64(-3))
	f.Add(uint8(64), uint8(64), uint8(64), uint8(config.CUBE), uint8(1), int64(10), int64(-1), int64(100))
	f.Fuzz(func(t *testing.T, networks, inputs, outputs, typ, perPort uint8, samples, batch, shards int64) {
		cfg := Config{
			Net: config.Config{
				Processors: int(networks) * int(inputs),
				Networks:   int(networks),
				Inputs:     int(inputs),
				Outputs:    int(outputs),
				Type:       config.NetworkType(typ % 5),
				PerPort:    int(perPort),
			},
			Sim:    sim.Config{Samples: int(samples), BatchSize: int(batch)},
			Shards: int(shards),
		}
		plan, err := BuildPlan(cfg)
		if err != nil {
			return
		}
		subs := cfg.Net.Networks
		if plan.Subs != subs {
			t.Fatalf("%s: Subs = %d, want %d", cfg.Net, plan.Subs, subs)
		}

		wantGroups := subs
		if cfg.Shards > 0 {
			wantGroups = min(cfg.Shards, subs)
		}
		if len(plan.Groups) != wantGroups {
			t.Fatalf("%s, Shards %d: %d groups, want %d", cfg.Net, cfg.Shards, len(plan.Groups), wantGroups)
		}
		next := 0
		for g, r := range plan.Groups {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("%s: group %d is %v after sub %d; groups must tile [0, %d) in order", cfg.Net, g, r, next, subs)
			}
			next = r[1]
		}
		if next != subs {
			t.Fatalf("%s: groups end at sub %d, want %d", cfg.Net, next, subs)
		}

		n := cfg.Sim.Samples
		if n <= 0 {
			n = 100000
		}
		b := cfg.Sim.BatchSize
		if b <= 0 {
			b = max(n/30, 1)
		}
		if plan.BatchSize != b {
			t.Fatalf("Samples %d, BatchSize %d: plan batch size %d, want %d", cfg.Sim.Samples, cfg.Sim.BatchSize, plan.BatchSize, b)
		}
		if len(plan.Batches) != subs {
			t.Fatalf("%d batch quotas for %d subs", len(plan.Batches), subs)
		}
		sum := 0
		for s, q := range plan.Batches {
			if q < 1 {
				t.Fatalf("sub %d has a quota of %d batches, want at least 1", s, q)
			}
			sum += q
		}
		if want := max(n/b, subs); sum != want {
			t.Fatalf("Samples %d, batch %d, %d subs: quotas sum to %d batches, want %d", n, b, subs, sum, want)
		}

		ports := cfg.Net.Outputs
		if cfg.Net.Type == config.SBUS {
			ports = 1
		}
		if len(plan.PidOff) != subs || len(plan.PortOff) != subs {
			t.Fatalf("%d processor and %d port offsets for %d subs", len(plan.PidOff), len(plan.PortOff), subs)
		}
		for s := 0; s < subs; s++ {
			if plan.PidOff[s] != s*cfg.Net.Inputs || plan.PortOff[s] != s*ports {
				t.Fatalf("%s: sub %d offsets (%d, %d), want (%d, %d)", cfg.Net, s, plan.PidOff[s], plan.PortOff[s], s*cfg.Net.Inputs, s*ports)
			}
		}

		again, err := BuildPlan(cfg)
		if err != nil || !reflect.DeepEqual(plan, again) {
			t.Fatalf("%s: a second BuildPlan returned %+v, %v; the first %+v", cfg.Net, again, err, plan)
		}
	})
}
