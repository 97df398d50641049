// Command bench records and gates engine-throughput benchmarks.
//
// It shells out to `go test -bench`, runs each benchmark count times,
// and keeps the minimum ns/op per benchmark — the min-of-N estimator,
// which tracks the machine's best case and is far less noisy than the
// mean under CI load. Results are written as a small JSON document
// (schema rsin-bench/1, sorted by name, no timestamps) so the baseline
// can live in git and diff cleanly:
//
//	{
//	  "schema": "rsin-bench/1",
//	  "go_bench": "BenchmarkEngineThroughput|BenchmarkShardedRun",
//	  "results": [
//	    {"name": "BenchmarkEngineThroughput/16/16x1x1_SBUS/2", "ns_per_op": 12345678},
//	    ...
//	  ]
//	}
//
// Modes:
//
//	bench -out BENCH_sim.json              # refresh the committed baseline
//	bench -baseline BENCH_sim.json         # gate: fail on >5% regression
//
// The gate compares this run's min-of-N against the committed baseline
// and fails when any benchmark is slower by more than -tolerance
// (default 0.05; it must be finite and ≥ 0). Benchmarks added since
// the baseline was recorded are reported but do not fail the gate;
// benchmarks that disappeared do, so silent renames cannot dodge it.
// Usage errors — including an undefined flag, a bad -tolerance and a
// baseline that is unreadable or has no results — print one "bench:
// ..." line and exit with status 2 before any benchmark runs; a failed
// run or gate exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type document struct {
	Schema  string   `json:"schema"`
	GoBench string   `json:"go_bench"`
	Results []result `json:"results"`
}

const schema = "rsin-bench/1"

func main() {
	var (
		benchRe   = flag.String("bench", "BenchmarkEngineThroughput|BenchmarkShardedRun", "go test -bench regexp")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		count     = flag.Int("count", 5, "runs per benchmark; the minimum ns/op is kept")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime per run")
		out       = flag.String("out", "", "write the measured baseline to this file")
		baseline  = flag.String("baseline", "", "compare against this committed baseline and fail on regression")
		tolerance = flag.Float64("tolerance", 0.05, "allowed slowdown fraction before the gate fails")
	)
	parseFlags()
	if (*out == "") == (*baseline == "") {
		usageError("exactly one of -out or -baseline is required")
	}
	if *count < 1 {
		usageError("-count must be ≥ 1")
	}
	// A NaN tolerance would make every ratio > 1+tolerance test false and
	// pass any slowdown; a negative one fails identical timings. Both are
	// caught here, before the benchmarks run, as is a bad baseline.
	if !(*tolerance >= 0) || math.IsInf(*tolerance, 0) {
		usageError(fmt.Sprintf("-tolerance must be finite and ≥ 0 (got %g)", *tolerance))
	}
	var base document
	if *baseline != "" {
		var err error
		if base, err = readBaseline(*baseline); err != nil {
			usageError(err.Error())
		}
	}

	doc, err := measure(*benchRe, *pkg, *count, *benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("bench: wrote %d results to %s (min of %d runs each)\n", len(doc.Results), *out, *count)
		return
	}

	if err := gate(os.Stdout, base, doc, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line. A bad flag is reported through
// usageError like every other invalid invocation, on one line, instead
// of the flag package's message followed by the whole flag list; -h
// still prints the list.
func parseFlags() {
	flag.CommandLine.Init("bench", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	}
	if err != nil {
		usageError(err.Error())
	}
}

// usageError reports an invalid invocation and exits with status 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkEngineThroughput/16/16x1x1_SBUS/2-8   3   18351133 ns/op
//
// capturing the name (GOMAXPROCS suffix stripped) and the ns/op value.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// measure runs the benchmarks count times and keeps the minimum ns/op
// seen for each name.
func measure(benchRe, pkg string, count int, benchtime string) (document, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", benchRe, "-count", strconv.Itoa(count), "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return document{}, fmt.Errorf("go test -bench failed: %w", err)
	}
	mins := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return document{}, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if cur, ok := mins[m[1]]; !ok || ns < cur {
			mins[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return document{}, err
	}
	if len(mins) == 0 {
		return document{}, fmt.Errorf("no benchmark results matched %q in %s", benchRe, pkg)
	}
	doc := document{Schema: schema, GoBench: benchRe}
	for name, ns := range mins {
		doc.Results = append(doc.Results, result{Name: name, NsPerOp: ns})
	}
	sort.Slice(doc.Results, func(i, j int) bool { return doc.Results[i].Name < doc.Results[j].Name })
	return doc, nil
}

func readBaseline(path string) (document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return document{}, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	if len(doc.Results) == 0 {
		return document{}, fmt.Errorf("%s: no results (an empty baseline would pass any run)", path)
	}
	return doc, nil
}

// gate compares cur against base and returns an error when any baseline
// benchmark regressed beyond tolerance or vanished from the run.
func gate(w *os.File, base, cur document, tolerance float64) error {
	current := map[string]float64{}
	for _, r := range cur.Results {
		current[r.Name] = r.NsPerOp
	}
	var failures []string
	for _, b := range base.Results {
		ns, ok := current[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		ratio := ns / b.NsPerOp
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.1f%% slower, tolerance %.0f%%)",
					b.Name, ns, b.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		fmt.Fprintf(w, "bench: %-60s %12.0f ns/op  baseline %12.0f  ratio %.3f  %s\n",
			b.Name, ns, b.NsPerOp, ratio, status)
	}
	known := map[string]bool{}
	for _, b := range base.Results {
		known[b.Name] = true
	}
	for _, r := range cur.Results {
		if !known[r.Name] {
			fmt.Fprintf(w, "bench: %-60s %12.0f ns/op  (new, no baseline)\n", r.Name, r.NsPerOp)
		}
	}
	if len(failures) > 0 {
		msg := "throughput gate failed:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintf(w, "bench: %d benchmarks within %.0f%% of baseline\n", len(base.Results), tolerance*100)
	return nil
}
