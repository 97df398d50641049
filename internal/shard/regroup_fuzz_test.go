package shard

import (
	"bytes"
	"testing"

	"rsin/internal/config"
	"rsin/internal/sim"
)

// FuzzShardRegroup decodes a small partitioned shape (SBUS, XBAR or
// OMEGA; 2–8 sub-networks of 1–4 inputs; r of 1 or 2), a seed and two
// shard counts, runs the configuration under both groupings, and
// requires the merged Result, attribution, series and trace to be
// byte-equal: how sub-networks are batched into jobs must never reach
// the output.
func FuzzShardRegroup(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint64(1), uint8(1), uint8(3))
	f.Add(uint8(2), uint8(6), uint8(3), uint8(1), uint64(7), uint8(0), uint8(5))
	f.Add(uint8(0), uint8(0), uint8(3), uint8(1), uint64(1983), uint8(2), uint8(9))
	f.Fuzz(func(t *testing.T, typ, subs, inputs, perPort uint8, seed uint64, shardsA, shardsB uint8) {
		net := config.Config{
			Networks: 2 + int(subs%7),
			Inputs:   1 + int(inputs%4),
			Type:     []config.NetworkType{config.SBUS, config.XBAR, config.OMEGA}[typ%3],
			PerPort:  1 + int(perPort%2),
		}
		switch net.Type {
		case config.SBUS:
			net.Outputs = 1
		case config.XBAR:
			net.Outputs = 1 + int(inputs/4%4)
		case config.OMEGA:
			net.Inputs = max(2, net.Inputs+net.Inputs%2) // 2 or 4
			net.Outputs = net.Inputs
		}
		net.Processors = net.Networks * net.Inputs
		if err := net.Validate(); err != nil {
			t.Fatalf("decoded an invalid shape: %v", err)
		}
		cfg := Config{
			Net: net,
			Sim: sim.Config{Lambda: 0.05, MuN: 1, MuS: 0.5, Seed: seed, Warmup: 5, Samples: 200},
		}
		cfg.Shards, cfg.Workers = int(shardsA%10), 1
		resA, attrA, seriesA, traceA := shardOutput(t, cfg)
		cfg.Shards, cfg.Workers = int(shardsB%10), 2
		resB, attrB, seriesB, traceB := shardOutput(t, cfg)
		for _, c := range []struct {
			name string
			a, b []byte
		}{
			{"Result", resA, resB},
			{"attribution", attrA, attrB},
			{"series", seriesA, seriesB},
			{"trace", traceA, traceB},
		} {
			if !bytes.Equal(c.a, c.b) {
				t.Errorf("%s seed %d: merged %s differs between %d and %d shards", net, seed, c.name, shardsA%10, shardsB%10)
			}
		}
	})
}
