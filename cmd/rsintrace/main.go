// Command rsintrace analyzes the observability artifacts the rsin
// tools emit: latency-attribution reports (rsin-attr-set/1, from
// rsinsim -attr or figures -attr), simulated-time series
// (rsin-series-set/1, from -series), and Chrome trace_event JSON files
// (from -trace). Every report it prints is derived purely from file
// contents, so identical inputs produce byte-identical output — the
// property the CI determinism gates cmp against.
//
// Usage:
//
//	rsintrace attr FILE            # per-run phase attribution tables
//	rsintrace attr -json FILE      # canonical JSON re-emission
//	rsintrace top -k 10 FILE       # slowest requests across all runs
//	rsintrace series FILE          # time-series summaries + MSER-5 warmup audit
//	rsintrace diff -tol 0.05 A B   # phase-level regression check (exit 1 on regression)
//	rsintrace trace FILE[.gz]      # population-level phase summary from a Chrome trace
//
// The trace reader is gzip-transparent and reconstructs the
// population-level attribution (queueing delay, transmission, service)
// from the wait/tx/svc slices plus the reject/reroute blocking
// breakdown — a Fig. 12-style view of where requests lose time.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: rsintrace [flags] <command> <file...>

commands:
  attr FILE     print per-run latency-attribution tables (rsin-attr-set/1)
  top FILE      print the slowest requests across all runs of an attribution file
  series FILE   print time-series summaries and MSER-5 warmup estimates (rsin-series-set/1)
  diff A B      compare two attribution files phase by phase; exit 1 on regression
  trace FILE    summarize a Chrome trace_event JSON (gzip-transparent)

flags:
`)
	flag.PrintDefaults()
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit canonical JSON instead of text (attr, series)")
		topK    = flag.Int("k", 10, "requests listed by the top command (a negative value lists every request)")
		tol     = flag.Float64("tol", 0.05, "relative phase-mean change tolerated by diff before flagging a regression (non-negative and finite)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Re-parse the remainder so flags may also follow the command
	// ("rsintrace top -k 5 FILE").
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}
	files := flag.Args()
	// A NaN tolerance would pass every phase and a negative one fail
	// every phase, so either would silently break the regression gate.
	if !(*tol >= 0) || math.IsInf(*tol, 0) {
		fmt.Fprintf(os.Stderr, "rsintrace: -tol must be non-negative and finite (got %g)\n", *tol)
		os.Exit(2)
	}
	need := func(n int) {
		if len(files) != n {
			fmt.Fprintf(os.Stderr, "rsintrace: %s takes exactly %d file argument(s)\n", cmd, n)
			os.Exit(2)
		}
	}
	var err error
	switch cmd {
	case "attr":
		need(1)
		err = runAttr(os.Stdout, files[0], *jsonOut)
	case "top":
		need(1)
		err = runTop(os.Stdout, files[0], *topK)
	case "series":
		need(1)
		err = runSeries(os.Stdout, files[0], *jsonOut)
	case "diff":
		need(2)
		var regressed bool
		regressed, err = runDiff(os.Stdout, files[0], files[1], *tol)
		if err == nil && regressed {
			os.Exit(1)
		}
	case "trace":
		need(1)
		err = runTrace(os.Stdout, files[0])
	default:
		fmt.Fprintf(os.Stderr, "rsintrace: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsintrace:", err)
		os.Exit(2)
	}
}
