// Command figures regenerates the paper's evaluation artifacts:
// Figs. 4, 5 (single shared bus, exact Markov analysis), Figs. 7, 8
// (multiple shared buses, simulation), Fig. 11 (the two-phase routing
// walkthrough), Figs. 12, 13 (Omega networks, simulation), Table I
// (gate-level cell truth table), Table II (network selection), the
// Section V blocking-probability comparison, the Section VI
// cross-network comparison, a μs/μn ratio sweep, and the quantitative
// cost-performance frontier behind Table II.
//
// Sweeps execute on the parallel runner (internal/runner): the points
// of each figure fan out across -workers goroutines with per-point
// derived seeds, so the output is bit-for-bit identical for any worker
// count — rerun with a different -workers value and diff to check.
//
// Usage:
//
//	figures -fig all               # everything, full quality
//	figures -fig 4                 # one artifact
//	figures -fig 12 -quick         # fast, noisier confidence intervals
//	figures -fig 7 -format csv     # machine-readable series
//	figures -fig 8 -workers 4      # cap the worker pool
//	figures -fig all -progress     # live per-sweep progress on stderr
//
// Observability: all commentary (progress, timing) goes through one
// serialized stderr sink, so status lines and timing reports never
// interleave; figure tables stay alone on stdout. The timing line
// reports each artifact's wall time, workers, jobs and pool occupancy;
// -job-trace writes a wall-clock Chrome trace of the worker pool's job
// schedule (one process per artifact, one thread per worker — open in
// Perfetto), and -cpuprofile/-memprofile write pprof profiles. The name
// keeps it apart from rsinsim -trace, which records simulated time.
//
// Invalid flag values, unsupported flag combinations and unknown -fig
// names are rejected with a one-line error on stderr and exit status 1,
// before any profile starts. A later failure also exits 1 with one
// line, after stopping the profiles, so -cpuprofile still holds a valid
// profile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rsin/internal/cost"
	"rsin/internal/experiments"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/runner"
	"rsin/internal/sim"
	"rsin/internal/workload"
)

// artifacts lists every -fig name, in the order -fig all regenerates
// them.
var artifacts = []string{"4", "5", "7", "8", "11", "12", "13", "blocking", "compare", "table1", "table2", "ratio", "frontier"}

func main() {
	sink := obs.NewSink(os.Stderr)
	if err := run(sink); err != nil {
		sink.Logf("figures: %v", err)
		os.Exit(1)
	}
}

// run validates the command line, then starts the profiles and
// regenerates the artifacts. Every failure returns its error, so the
// deferred profile writers run on error exits too.
func run(sink *obs.Sink) error {
	var (
		which    = flag.String("fig", "all", "which artifact: "+strings.Join(artifacts, ", ")+", all")
		quick    = flag.Bool("quick", false, "use the fast preset (noisier confidence intervals)")
		format   = flag.String("format", "text", "output format for figure tables: text or csv")
		workers  = flag.Int("workers", 0, "worker goroutines per sweep (0 = all CPUs); results are identical for any value")
		reps     = flag.Int("reps", 1, "independent replications per sweep point, pooled into one estimate")
		shards   = flag.Int("shards", 0, "route simulated sweep cells through the sharded per-sub-network orchestrator batched into this many jobs (0 = classic single event loop; incompatible with -attr/-series)")
		progress = flag.Bool("progress", false, "report live per-sweep progress on stderr")
		timing   = flag.Bool("timing", true, "report per-artifact wall-clock timing on stderr")
		check    = flag.Bool("check", false, "enable runtime model-invariant checks (see internal/invariant)")

		traceOut   = flag.String("job-trace", "", "write a wall-clock Chrome trace_event JSON of the worker pool's job schedule to this file (open in Perfetto)")
		attrOut    = flag.String("attr", "", "collect a latency-attribution report for every simulated sweep cell and write them as one rsin-attr-set/1 JSON file (byte-identical for any -workers value)")
		attrTopK   = flag.Int("attr-topk", 10, "slowest requests kept per run in the -attr reports")
		seriesOut  = flag.String("series", "", "collect simulated-time series (queue length, busy resources, blocked waiters) for every simulated sweep cell into one rsin-series-set/1 JSON file")
		seriesDt   = flag.Float64("series-dt", 1, "simulated-time grid step for -series samples")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := parseFlags(); err != nil {
		return err
	}
	if *check {
		invariant.Enable(true)
	}
	switch {
	case *format != "text" && *format != "csv":
		return fmt.Errorf("unknown -format %q (want text or csv)", *format)
	case *shards < 0:
		return fmt.Errorf("-shards must be non-negative (got %d)", *shards)
	case *attrTopK < 0:
		return fmt.Errorf("-attr-topk must be non-negative (got %d)", *attrTopK)
	case *shards > 0 && (*attrOut != "" || *seriesOut != ""):
		return fmt.Errorf("-shards is incompatible with -attr/-series: the observation hook attaches one probe per sweep cell, which has no per-sub-network form (use cmd/rsinsim -shards for merged attribution and series)")
	case !(*seriesDt > 0) || math.IsInf(*seriesDt, 0):
		return fmt.Errorf("-series-dt must be positive and finite (got %g)", *seriesDt)
	}
	names := []string{*which}
	if *which == "all" {
		names = artifacts
	} else if !slices.Contains(artifacts, *which) {
		return fmt.Errorf("unknown figure %q", *which)
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				sink.Logf("figures: %v", err)
			}
		}()
	}

	q := experiments.Full()
	if *quick {
		q = experiments.Quick()
	}
	q.Workers = *workers
	q.Reps = *reps
	q.Shards = *shards
	var collector *obsCollector
	if *attrOut != "" || *seriesOut != "" {
		collector = newObsCollector(*attrOut != "", *seriesOut != "", *attrTopK, *seriesDt)
	}
	collectTelemetry := *traceOut != "" || *timing
	render := func(fig experiments.Figure) error {
		if *format == "csv" {
			return fig.RenderCSV(os.Stdout)
		}
		return fig.Render(os.Stdout)
	}
	rhos := workload.PaperRhoGrid()

	regenerate := func(name string) error {
		if *progress {
			q.Progress = runner.SinkProgress(sink, "fig "+name)
		}
		switch name {
		case "4":
			fig, err := experiments.Fig4(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "5":
			fig, err := experiments.Fig5(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "7":
			fig, err := experiments.Fig7(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "8":
			fig, err := experiments.Fig8(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "12":
			fig, err := experiments.Fig12(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "13":
			fig, err := experiments.Fig13(rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "blocking":
			trials := 200000
			if *quick {
				trials = 5000
			}
			return render(experiments.FigBlocking(8, trials, q))
		case "compare":
			fig, err := experiments.FigCompare(0.1, rhos, q)
			if err != nil {
				return err
			}
			return render(fig)
		case "11":
			return experiments.RenderFig11(os.Stdout)
		case "table1":
			return experiments.RenderTableI(os.Stdout)
		case "table2":
			return experiments.RenderTableII(os.Stdout)
		case "ratio":
			fig, err := experiments.FigRatioSweep(0.7, experiments.PaperRatioGrid(), q)
			if err != nil {
				return err
			}
			return render(fig)
		case "frontier":
			for _, fc := range []struct {
				title   string
				resCost float64
				budget  float64
				ratio   float64
				rho     float64
				tol     float64
			}{
				{"resources dear, μs/μn=0.1 (Table II row 1)", 50, 2000, 0.1, 0.6, 0.10},
				{"resources dear, μs/μn=10, heavy load (Table II row 2)", 50, 2000, 10, 0.9, 0.05},
				{"comparable costs, μs/μn=0.1 (Table II row 3)", 8, 600, 0.1, 0.6, 0.10},
				{"network dear / resources cheap (Table II row 5)", 0.5, 150, 1, 0.6, 0.10},
			} {
				entries, err := experiments.Frontier(cost.DefaultModel(fc.resCost), fc.budget, fc.ratio, fc.rho, q)
				if err != nil {
					return err
				}
				if err := experiments.RenderFrontier(os.Stdout, fc.title, entries, fc.tol); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
	}

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.NumCPU()
	}
	type artifactRun struct {
		name string
		tel  *runner.Telemetry
	}
	var ran []artifactRun
	for _, n := range names {
		sw := obs.NewStopwatch()
		var tel *runner.Telemetry
		if collectTelemetry {
			tel = runner.NewTelemetry()
			ran = append(ran, artifactRun{name: n, tel: tel})
		}
		q.Telemetry = tel
		if collector != nil {
			q.Observe = collector.observe(n)
		}
		if err := regenerate(n); err != nil {
			return err
		}
		if *timing {
			// -timing implies collectTelemetry, so tel is set.
			if s := tel.Summary(); s.Jobs > 0 {
				sink.Logf("figures: %s regenerated in %s (workers=%d, %d jobs, occupancy %.0f%%)",
					n, sw.Elapsed().Round(time.Millisecond), effWorkers, s.Jobs, 100*s.Occupancy)
			} else {
				sink.Logf("figures: %s regenerated in %s (workers=%d)",
					n, sw.Elapsed().Round(time.Millisecond), effWorkers)
			}
		}
	}
	sink.Flush()
	if *traceOut != "" {
		// One timeline: artifact i is trace process i, offset by its
		// telemetry's epoch relative to the first.
		var events []obs.TraceEvent
		for i, ar := range ran {
			offset := ar.tel.Epoch().Sub(ran[0].tel.Epoch())
			events = append(events, ar.tel.TraceEvents(i, "fig "+ar.name, offset)...)
		}
		if err := writeJSONFile(*traceOut, func(f *os.File) error {
			return obs.WriteTraceJSON(f, events)
		}); err != nil {
			return err
		}
	}
	if collector != nil {
		return collector.write(*attrOut, *seriesOut)
	}
	return nil
}

// obsCollector gathers per-cell attribution reports and time series
// across every simulated sweep of the regenerated artifacts. Cells
// complete on worker goroutines in nondeterministic wall-clock order,
// so results are keyed by the cell's identity label and written in
// sorted-label order — the files are byte-identical for any -workers
// value, like every other simulated-time artifact.
type obsCollector struct {
	mu                   sync.Mutex
	wantAttr, wantSeries bool
	topK                 int
	dt                   float64
	atts                 map[string]obs.Attribution
	series               map[string]obs.Series
}

func newObsCollector(wantAttr, wantSeries bool, topK int, dt float64) *obsCollector {
	return &obsCollector{
		wantAttr: wantAttr, wantSeries: wantSeries,
		topK: topK, dt: dt,
		atts:   map[string]obs.Attribution{},
		series: map[string]obs.Series{},
	}
}

// observe returns the Quality.Observe hook for one artifact.
func (c *obsCollector) observe(artifact string) func(experiments.ObservedRun) (obs.Probe, func(sim.Result)) {
	return func(cell experiments.ObservedRun) (obs.Probe, func(sim.Result)) {
		label := fmt.Sprintf("fig %s %s x=%g rep=%d", artifact, cell.Config, cell.X, cell.Rep)
		var probes []obs.Probe
		var attr *obs.AttrRecorder
		var ser *obs.SeriesRecorder
		if c.wantAttr {
			attr = obs.NewAttrRecorder(c.topK)
			probes = append(probes, attr)
		}
		if c.wantSeries {
			ser = obs.NewSeriesRecorder(cell.Config.Processors, c.dt)
			probes = append(probes, ser)
		}
		finish := func(res sim.Result) {
			c.mu.Lock()
			defer c.mu.Unlock()
			if attr != nil {
				c.atts[label] = attr.Report(label, sim.BlockingRows(res))
			}
			if ser != nil {
				c.series[label] = ser.Finish(label, res.SimTime)
			}
		}
		return obs.Multi(probes...), finish
	}
}

// write flushes the collected documents in sorted-label order.
func (c *obsCollector) write(attrPath, seriesPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attrPath != "" {
		atts := make([]obs.Attribution, 0, len(c.atts))
		for _, label := range sortedLabels(c.atts) {
			atts = append(atts, c.atts[label])
		}
		if err := writeJSONFile(attrPath, func(f *os.File) error {
			return obs.WriteAttributions(f, atts)
		}); err != nil {
			return err
		}
	}
	if seriesPath != "" {
		series := make([]obs.Series, 0, len(c.series))
		for _, label := range sortedLabels(c.series) {
			series = append(series, c.series[label])
		}
		if err := writeJSONFile(seriesPath, func(f *os.File) error {
			return obs.WriteSeries(f, series)
		}); err != nil {
			return err
		}
	}
	return nil
}

func sortedLabels[V any](m map[string]V) []string {
	labels := make([]string, 0, len(m))
	for l := range m {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// parseFlags parses the command line. A bad flag is returned and
// reported like every other invalid invocation, on one line, instead of
// the flag package's message followed by the whole flag list; -h still
// prints the list.
func parseFlags() error {
	flag.CommandLine.Init("figures", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	}
	return err
}

// writeJSONFile creates path and hands it to write, closing cleanly.
func writeJSONFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
