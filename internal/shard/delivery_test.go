package shard

import (
	"bytes"
	"fmt"
	"testing"

	"rsin/internal/config"
	"rsin/internal/obs"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

// recorders is the trace, attribution and series recorder set one
// observed run (or one sub-network of a sharded run) feeds.
type recorders struct {
	trace  *obs.Trace
	attr   *obs.AttrRecorder
	series *obs.SeriesRecorder
}

// newRecorders returns a fresh set for p processors. The series grid
// step of 0.5 puts several grid points between events, so a tick the
// filtered stream emits at a later event than the full stream does is
// exercised.
func newRecorders(p int) *recorders {
	return &recorders{obs.NewTrace(), obs.NewAttrRecorder(5), obs.NewSeriesRecorder(p, 0.5)}
}

// filtered combines the set through obs.Multi: each recorder receives
// only the kinds it declares, and the kernel builds only their union.
func (r *recorders) filtered() obs.Probe { return obs.Multi(r.trace, r.attr, r.series) }

// full feeds the set through one obs.Func, which declares no kinds, so
// the kernel builds every event and every recorder receives it.
func (r *recorders) full() obs.Probe {
	return obs.Func(func(e obs.Event) {
		r.trace.Event(e)
		r.attr.Event(e)
		r.series.Event(e)
	})
}

// render finishes the set and returns its three files' bytes.
func (r *recorders) render(t *testing.T, simTime float64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteAttributions(&b, []obs.Attribution{r.attr.Report("run", nil)}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeries(&b, []obs.Series{r.series.Finish("run", simTime)}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTraces(&b, r.trace); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFilteredDeliveryMatchesFullStream pins that delivering each
// recorder only the kinds it declares changes no artifact: the
// attribution, series and trace files of a run fed the filtered stream
// are byte-identical to those of the same run fed every event, for
// every network class, partitioned and not, classic and through
// RunSubs. Omega at ρ 0.9 rejects requests in the network, so reject
// events are covered.
func TestFilteredDeliveryMatchesFullStream(t *testing.T) {
	var omegaRejects int64
	for _, name := range []string{
		"16/1x16x1 SBUS/8", "16/4x4x1 SBUS/2",
		"16/1x16x16 XBAR/1", "16/4x4x4 XBAR/2",
		"16/1x16x16 OMEGA/2", "16/8x2x2 OMEGA/2",
		"16/1x16x16 CUBE/2", "16/4x4x4 CUBE/2",
	} {
		cfg := mustParse(t, name)
		for _, rho := range []float64{0.5, 0.9} {
			sc := sim.Config{
				Lambda: queueing.LambdaForIntensity(rho, cfg.Processors, 1, 0.1, cfg.TotalResources()),
				MuN:    1, MuS: 0.1, Seed: 7, Warmup: 50, Samples: 3000,
			}
			t.Run(fmt.Sprintf("%s/rho=%g/classic", name, rho), func(t *testing.T) {
				run := func(probe func(*recorders) obs.Probe) ([]byte, sim.Result) {
					net, err := cfg.Build(config.BuildOptions{})
					if err != nil {
						t.Fatal(err)
					}
					r := newRecorders(cfg.Processors)
					c := sc
					c.Probe = probe(r)
					res, err := sim.Run(net, c)
					if err != nil {
						t.Fatal(err)
					}
					return r.render(t, res.SimTime), res
				}
				filtered, res := run((*recorders).filtered)
				full, _ := run((*recorders).full)
				if !bytes.Equal(filtered, full) {
					t.Error("filtered delivery changed the attribution, series or trace bytes")
				}
				if cfg.Type == config.OMEGA {
					omegaRejects += res.Telemetry.Rejects
				}
			})
			t.Run(fmt.Sprintf("%s/rho=%g/RunSubs", name, rho), func(t *testing.T) {
				run := func(probe func(*recorders) obs.Probe) [][]byte {
					recs := make([]*recorders, cfg.Networks)
					_, results, err := RunSubs(Config{Net: cfg, Sim: sc, Shards: 2, Workers: 2,
						Probe: func(s int) obs.Probe {
							recs[s] = newRecorders(cfg.Inputs)
							return probe(recs[s])
						}})
					if err != nil {
						t.Fatal(err)
					}
					out := make([][]byte, len(recs))
					for s, r := range recs {
						out[s] = r.render(t, results[s].SimTime)
					}
					return out
				}
				filtered, full := run((*recorders).filtered), run((*recorders).full)
				for s := range filtered {
					if !bytes.Equal(filtered[s], full[s]) {
						t.Errorf("sub %d: filtered delivery changed the attribution, series or trace bytes", s)
					}
				}
			})
		}
	}
	if omegaRejects == 0 {
		t.Error("no Omega run rejected a request in the network; reject events went untested")
	}
}

// TestProbeReadingNoKindReceivesNothing: a probe that declares the
// empty set is attached but read nothing, so the kernel builds no event
// for it.
func TestProbeReadingNoKindReceivesNothing(t *testing.T) {
	cfg := mustParse(t, "16/8x2x2 OMEGA/2")
	net, err := cfg.Build(config.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	p := silent{&got}
	if obs.KindsOf(p) != 0 {
		t.Fatal("silent declares a kind")
	}
	sc := sim.Config{Lambda: 0.05, MuN: 1, MuS: 0.1, Seed: 3, Warmup: 10, Samples: 2000, Probe: p}
	if _, err := sim.Run(net, sc); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("a probe that reads no kind received %d events", got)
	}
}

// silent counts the events it receives and declares that it reads none.
type silent struct{ n *int }

func (silent) Kinds() obs.KindSet { return 0 }

func (s silent) Event(obs.Event) { *s.n++ }
