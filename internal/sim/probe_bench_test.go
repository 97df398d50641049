package sim

import (
	"testing"

	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/obs"
)

// BenchmarkRunProbe measures the cost of the observability layer on one
// sim.Run. The "off" case is the nil-probe fast path the CI overhead
// gate compares against: its per-event cost over a bare engine is one
// predictable branch per emission site.
func BenchmarkRunProbe(b *testing.B) {
	cfg := Config{
		Lambda:  0.5,
		MuN:     4,
		MuS:     1,
		Seed:    1,
		Warmup:  100,
		Samples: 20000,
	}
	run := func(b *testing.B, mk func(i int) obs.Probe) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Probe = mk(i)
			if _, err := Run(crossbar.New(16, 8, 2), c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func(int) obs.Probe { return nil })
	})
	b.Run("metrics", func(b *testing.B) {
		run(b, func(int) obs.Probe { return obs.NewRecorder(obs.NewRegistry()) })
	})
	b.Run("trace", func(b *testing.B) {
		run(b, func(int) obs.Probe { return obs.NewTrace() })
	})
	b.Run("attr", func(b *testing.B) {
		run(b, func(int) obs.Probe { return obs.NewAttrRecorder(10) })
	})
	b.Run("series", func(b *testing.B) {
		run(b, func(int) obs.Probe {
			s := obs.NewSeriesRecorder(16, 1)
			s.Reserve(4096)
			return s
		})
	})

	// The large-p shape: 64 partitioned 64-port crossbars (p=4096),
	// where the timer tree holds thousands of armed slots and the
	// per-event probe branch competes with a much hotter event loop.
	// Guards the probe-on overhead story beyond the small reference
	// system.
	largeCfg := Config{
		Lambda:  0.25,
		MuN:     4,
		MuS:     1,
		Seed:    1,
		Warmup:  20,
		Samples: 20000,
	}
	largeNet := func() core.Network {
		subs := make([]core.Network, 64)
		for i := range subs {
			subs[i] = crossbar.New(64, 32, 2)
		}
		return core.NewPartitioned(subs)
	}
	runLarge := func(b *testing.B, mk func(i int) obs.Probe) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := largeCfg
			c.Probe = mk(i)
			if _, err := Run(largeNet(), c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off-p4096", func(b *testing.B) {
		runLarge(b, func(int) obs.Probe { return nil })
	})
	b.Run("attr-p4096", func(b *testing.B) {
		runLarge(b, func(int) obs.Probe { return obs.NewAttrRecorder(10) })
	})
	b.Run("series-p4096", func(b *testing.B) {
		runLarge(b, func(int) obs.Probe {
			s := obs.NewSeriesRecorder(4096, 1)
			s.Reserve(4096)
			return s
		})
	})
}
