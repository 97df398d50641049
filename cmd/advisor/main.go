// Command advisor answers the paper's design question (Table II): given
// the relative cost of the interconnection network versus the resources
// and the μs/μn ratio of the application, which RSIN class should be
// used?
//
// Usage:
//
//	advisor                          # print the whole of Table II
//	advisor -cost cheap -ratio 0.2   # one recommendation
//
// -ratio must be positive and finite and needs -cost. Invalid values,
// stray arguments and undefined flags are rejected with a one-line
// error on stderr and exit status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"rsin/internal/experiments"
)

func main() {
	var (
		cost  = flag.String("cost", "", "network cost relative to resources: cheap, comparable, dear")
		ratio = flag.Float64("ratio", 1, "μs/μn ratio of the application (positive and finite; needs -cost)")
	)
	parseFlags()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (flags go before arguments, and advisor takes none)", flag.Arg(0)))
	}

	if *cost == "" {
		ratioSet := false
		flag.Visit(func(f *flag.Flag) { ratioSet = ratioSet || f.Name == "ratio" })
		if ratioSet {
			fatal(errors.New("-ratio needs -cost (cheap, comparable, dear); without both, advisor prints all of Table II"))
		}
		if err := experiments.RenderTableII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var rel experiments.CostRelation
	switch *cost {
	case "cheap":
		rel = experiments.NetMuchCheaper
	case "comparable":
		rel = experiments.NetComparable
	case "dear":
		rel = experiments.NetMuchDearer
	default:
		fatal(fmt.Errorf("unknown -cost %q (want cheap, comparable, dear)", *cost))
	}
	if !(*ratio > 0) || math.IsInf(*ratio, 0) {
		fatal(fmt.Errorf("-ratio must be positive and finite (got %g)", *ratio))
	}
	r := experiments.Advise(rel, *ratio)
	fmt.Printf("%s, μs/μn = %g (%s regime):\n  use a %s\n", r.Relation, *ratio, r.Ratio, r.Network)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}

// parseFlags parses the command line. A bad flag is reported like every
// other invalid invocation, on one line through fatal, instead of the
// flag package's message followed by the whole flag list; -h still
// prints the list.
func parseFlags() {
	flag.CommandLine.Init("advisor", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
}
