// Package experiments regenerates every table and figure of the paper's
// evaluation: the single-shared-bus delay curves (Figs. 4–5, analytic),
// the multiple-shared-bus curves (Figs. 7–8, simulation plus the
// light/heavy-load approximations), the Omega-network curves
// (Figs. 12–13, simulation), the Section V blocking-probability
// comparison, the Section VI cross-network comparison, and the Table II
// network-selection guidance.
//
// All experiments use the paper's canonical plant — 16 processors and
// 32 resources — with delays normalized by the mean service time and
// plotted against the traffic intensity ρ of the hypothetical reference
// system (one bus of rate 16·μn, one resource of rate 32·μs).
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"rsin/internal/config"
	"rsin/internal/obs"
	"rsin/internal/runner"
	"rsin/internal/shard"
	"rsin/internal/sim"
	"rsin/internal/workload"
)

// Plant is the canonical system of the paper's evaluation.
const (
	PlantProcessors = 16
	PlantResources  = 32
)

// Quality selects the simulation effort for simulation-backed figures
// and how the sweep executes on the parallel runner. Every sweep point
// (and replication) draws its random streams from seeds derived off
// Seed with runner.DeriveSeed, so the results are bit-for-bit
// identical for any Workers value; only the wall-clock time changes.
type Quality struct {
	Samples int     // post-warmup delay samples per point
	Warmup  float64 // warmup period in simulated time units
	Seed    uint64

	Reps     int                   // independent replications per point, pooled (0/1 = single run)
	Workers  int                   // worker goroutines for sweeps (0 = runtime.NumCPU())
	Progress func(done, total int) // optional per-sweep progress callback

	// Shards, when positive, routes every simulated sweep cell through
	// the sharded orchestrator (internal/shard): the configuration's
	// independent sub-networks simulate on per-sub derived streams,
	// batched into Shards sequential jobs, and merge deterministically —
	// cell results are byte-identical for every positive value. Sharding
	// is a different estimator from the classic single event loop (see
	// internal/shard), so the default 0 keeps the committed figures
	// byte-stable. Incompatible with Observe: the hook attaches one
	// probe per cell, which has no per-sub-network form.
	Shards int

	// Telemetry, when non-nil, records each sweep job's wall-clock
	// execution window and worker assignment (runner.Telemetry). Purely
	// observational.
	Telemetry *runner.Telemetry

	// Observe, when non-nil, is called once per (configuration, point,
	// replication) sweep cell before its simulation runs. It returns the
	// probe to attach (nil leaves the cell unobserved) and an optional
	// finish callback invoked with the completed run's Result — the hook
	// the figures CLI uses to collect attribution reports and
	// simulated-time series alongside a sweep. Cells execute on worker
	// goroutines concurrently, so implementations must synchronize any
	// shared state; keying collected output by the cell identity (not by
	// completion order) keeps it deterministic for any Workers value.
	// The finish callback is not invoked for saturated or failed runs.
	Observe func(ObservedRun) (obs.Probe, func(sim.Result))
}

// ObservedRun identifies one sweep cell handed to Quality.Observe.
type ObservedRun struct {
	Config config.Config
	Point  int     // index on the sweep's abscissa grid
	X      float64 // abscissa value (traffic intensity ρ, ratio, ...)
	Rep    int     // replication index
}

// Quick is a fast preset for tests (noisier CIs).
func Quick() Quality { return Quality{Samples: 20000, Warmup: 500, Seed: 1} }

// Full is the preset used to regenerate the reported figures.
func Full() Quality { return Quality{Samples: 400000, Warmup: 5000, Seed: 1} }

// reps returns the effective replication count.
func (q Quality) reps() int {
	if q.Reps < 1 {
		return 1
	}
	return q.Reps
}

// opts returns the runner options for this quality.
func (q Quality) opts() runner.Options {
	return runner.Options{Workers: q.Workers, Progress: q.Progress, Telemetry: q.Telemetry}
}

// Point is one (x, y) sample of a series; simulation-backed points
// carry a confidence half-width.
type Point struct {
	X         float64
	Y         float64
	HalfWide  float64
	Saturated bool // true when the configuration has no steady state here
}

// Series is one labeled curve.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one regenerated table or figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes the figure as an aligned text table: one row per x
// value, one column per series.
func (f Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	// Collect the union of x values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	fmt.Fprintf(&b, "%-8s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %-24s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-8.3g", x)
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					switch {
					case p.Saturated:
						cell = "saturated"
					case p.HalfWide > 0:
						cell = fmt.Sprintf("%.4g ± %.2g", p.Y, p.HalfWide)
					default:
						cell = fmt.Sprintf("%.4g", p.Y)
					}
					break
				}
			}
			fmt.Fprintf(&b, " | %-24s", cell)
		}
		b.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the figure as CSV: one row per x value, one column
// per series ("saturated" cells are left empty), with a leading header
// row. Simulation half-widths get companion "<label> ±" columns.
func (f Figure) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	hasCI := make([]bool, len(f.Series))
	for i, s := range f.Series {
		for _, p := range s.Points {
			if p.HalfWide > 0 {
				hasCI[i] = true
				break
			}
		}
		fmt.Fprintf(&b, ",%s", csvEscape(s.Label))
		if hasCI[i] {
			fmt.Fprintf(&b, ",%s ±", csvEscape(s.Label))
		}
	}
	b.WriteString("\n")
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for i, s := range f.Series {
			val, half := "", ""
			for _, p := range s.Points {
				if p.X == x && !p.Saturated {
					val = fmt.Sprintf("%g", p.Y)
					if p.HalfWide > 0 {
						half = fmt.Sprintf("%g", p.HalfWide)
					}
					break
				}
			}
			fmt.Fprintf(&b, ",%s", val)
			if hasCI[i] {
				fmt.Fprintf(&b, ",%s", half)
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// csvEscape quotes a field when it contains CSV metacharacters.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// At returns the y value of the series at x (NaN if absent or
// saturated).
func (s Series) At(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x && !p.Saturated {
			return p.Y
		}
	}
	return math.NaN()
}

// FindSeries returns the series with the given label, or nil.
func (f Figure) FindSeries(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// simSeries runs a simulation sweep of one configuration over the ρ
// grid and returns its normalized-delay series. Points where the run
// saturates are marked. It is the single-configuration form of
// simSeriesSet and shares its seed-derivation scheme.
func simSeries(cfg config.Config, muN, muS float64, rhos []float64, q Quality, series int) (Series, error) {
	set, err := simSeriesSet([]config.Config{cfg}, muN, muS, rhos, q, series)
	if err != nil {
		return Series{}, err
	}
	return set[0], nil
}

// simSeriesSet sweeps several configurations over the same ρ grid as
// one flattened (configuration × point × replication) job set on the
// parallel runner, so the points of every curve fill the worker pool
// together. Each job's simulation stream is seeded from
// runner.DeriveSeed — per-series base, per-point, per-rep — fixing the
// historical bug where every point of every curve reused the identical
// base seed (fully correlated streams). Results are collected by
// index: identical output for any worker count.
//
// firstSeries is the series index of cfgs[0] within the enclosing
// figure; it keys the per-series seed derivation, so a series keeps
// its exact stream whether swept alone or as part of a set.
func simSeriesSet(cfgs []config.Config, muN, muS float64, rhos []float64, q Quality, firstSeries int) ([]Series, error) {
	pts := workload.Sweep(PlantProcessors, muN, muS, PlantResources, rhos)
	reps := q.reps()
	perCfg := len(pts) * reps
	type cell struct {
		p   Point
		err error
	}
	run := runner.Map(q.opts(), len(cfgs)*perCfg, func(j int) cell {
		c, rem := j/perCfg, j%perCfg
		i, rep := rem/reps, rem%reps
		base := runner.DeriveSeed(q.Seed, firstSeries+c, 0)
		p, err := simPoint(cfgs[c], muN, muS, pts[i].Rho, pts[i].Lambda, q, base, i, rep)
		return cell{p: p, err: err}
	})
	for _, cl := range run {
		if cl.err != nil {
			return nil, cl.err
		}
	}
	out := make([]Series, len(cfgs))
	for c := range cfgs {
		s := Series{Label: cfgs[c].String()}
		for i := range pts {
			off := c*perCfg + i*reps
			group := make([]Point, reps)
			for k := range group {
				group[k] = run[off+k].p
			}
			s.Points = append(s.Points, poolPoint(group))
		}
		out[c] = s
	}
	return out, nil
}

// simPoint measures one (point, replication) cell at abscissa x with
// per-processor arrival rate lambda. The simulation stream uses rep
// slot 2·rep; the odd slots once seeded the networks, which draw no
// random numbers, and stay unused so every stream keeps its seed. With
// q.Shards > 0 the cell runs on the sharded orchestrator instead, which
// derives every per-sub stream from the cell's base simulation seed on
// the shard axis.
func simPoint(cfg config.Config, muN, muS, x, lambda float64, q Quality, base uint64, point, rep int) (Point, error) {
	simCfg := sim.Config{
		Lambda:  lambda,
		MuN:     muN,
		MuS:     muS,
		Seed:    runner.DeriveSeed(base, point, 2*rep),
		Warmup:  q.Warmup,
		Samples: q.Samples,
	}
	var res sim.Result
	var err error
	if q.Shards > 0 {
		if q.Observe != nil {
			return Point{}, errors.New("experiments: Quality.Observe is not supported with Quality.Shards")
		}
		// Sweep cells already fan out across the runner pool; the nested
		// sharded run stays on one worker to avoid oversubscription.
		res, err = shard.Run(shard.Config{
			Net:     cfg,
			Sim:     simCfg,
			Shards:  q.Shards,
			Workers: 1,
		})
	} else {
		net, berr := cfg.Build(config.BuildOptions{})
		if berr != nil {
			return Point{}, berr
		}
		var finish func(sim.Result)
		if q.Observe != nil {
			simCfg.Probe, finish = q.Observe(ObservedRun{Config: cfg, Point: point, X: x, Rep: rep})
		}
		res, err = sim.Run(net, simCfg)
		if err == nil && finish != nil {
			finish(res)
		}
	}
	if errors.Is(err, sim.ErrSaturated) {
		// Saturation is an expected operating condition the figures plot
		// as such; every other error (bad parameters, invariant
		// violations) propagates.
		return Point{X: x, Saturated: true}, nil
	}
	if err != nil {
		return Point{}, err
	}
	return Point{
		X:        x,
		Y:        res.NormalizedDelay.Mean,
		HalfWide: res.NormalizedDelay.HalfWide,
	}, nil
}

// poolPoint pools the independent replications of one sweep point: the
// mean of the replication means, with half-widths combined as for
// independent estimates (√Σh² / n). Any saturated replication marks
// the whole point saturated — replications disagreeing means the point
// sits on the capacity edge, where no steady-state estimate is honest.
func poolPoint(reps []Point) Point {
	if len(reps) == 1 {
		return reps[0]
	}
	out := Point{X: reps[0].X}
	var hw2 float64
	for _, r := range reps {
		if r.Saturated {
			return Point{X: r.X, Saturated: true}
		}
		out.Y += r.Y
		hw2 += r.HalfWide * r.HalfWide
	}
	n := float64(len(reps))
	out.Y /= n
	out.HalfWide = math.Sqrt(hw2) / n
	return out
}

// Sweep runs one configuration over the ρ grid at the given μs/μn
// ratio and returns its normalized-delay series — the exported
// single-curve entry point used by the CLIs and benchmarks. The sweep
// executes on the parallel runner with the same seed derivation as the
// figures (series index 0).
func Sweep(cfg config.Config, ratio float64, rhos []float64, q Quality) (Series, error) {
	const muN = 1.0
	return simSeries(cfg, muN, ratio*muN, rhos, q, 0)
}

// parseConfigs parses a curve set of configuration strings.
func parseConfigs(specs ...string) ([]config.Config, error) {
	cfgs := make([]config.Config, len(specs))
	for i, s := range specs {
		c, err := config.Parse(s)
		if err != nil {
			return nil, err
		}
		cfgs[i] = c
	}
	return cfgs, nil
}
