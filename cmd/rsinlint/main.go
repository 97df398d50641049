// Command rsinlint runs the project's eight static analyzers over
// packages of this module: the determinism checks (norand, noclock,
// seedflow), the dataflow suite (floatsafe, errflow, probrange) built
// on the internal CFG, dominator and reaching-definitions engine, and
// the interprocedural suite (hotalloc, puredet) built on the
// whole-module call graph and function summaries, which also carry
// noclock's and seedflow's checks across calls. It is built only on
// the standard library — no golang.org/x/tools — so it works in the
// dependency-free build environment.
//
// Usage:
//
//	go run ./cmd/rsinlint [-tags taglist] [-json] [-analyzers list] [-callgraph-dot file] [packages]
//	go run ./cmd/rsinlint -certify <root>[,<root>...] [-tags taglist] [-certify-out file] [packages]
//	go run ./cmd/rsinlint -explain <analyzer>
//
// Package patterns are module-relative ("./...", "./internal/sim");
// the default is "./...". The exit status is 1 if any finding
// survived suppression, 2 on operational errors. A flag the chosen
// mode does not read (-certify-out without -certify; -json,
// -analyzers or -callgraph-dot with -certify; anything besides
// -explain with -explain) is an error, exit status 2, as is an
// undefined flag; each prints one "rsinlint: ..." line.
//
// -analyzers restricts the run to a comma-separated subset of the
// analyzer names (unknown names are an error). -callgraph-dot writes
// the interprocedural call graph, with hot-path nodes highlighted, in
// Graphviz DOT form for debugging.
//
// -certify switches to certification mode: the named root functions
// ("internal/sim.Run", "sim.Run" and full "rsin/internal/sim.Run"
// forms all resolve) are closed over the call graph and every member
// is proven free of shard-determinism hazards, or the witness call
// chains are reported. The byte-stable JSON certificate is written to
// -certify-out (default lint/determinism.cert.json under the module
// root; "-" writes to stdout). The exit status is 1 when the
// certificate is not clean. CI regenerates the certificate and fails
// on any diff against the committed copy.
//
// Findings can be suppressed at the reporting site with a directive
// on the same line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The same directive in a function declaration's doc comment
// suppresses matching findings in the whole function — the natural
// granularity for hotalloc's transitive findings. Malformed
// directives, directives naming unknown analyzers, and directives
// that no longer suppress anything are themselves reported (as
// analyzer "suppression") and cannot be suppressed.
//
// With -json the findings are emitted as a single JSON object:
//
//	{
//	  "findings": [
//	    {"file": "internal/x/y.go", "line": 12, "col": 3,
//	     "analyzer": "errflow", "message": "..."}
//	  ],
//	  "suppressed": 2
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rsin/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags to apply when selecting files")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON object on stdout")
	explain := flag.String("explain", "", "print the documentation of one analyzer and exit")
	subset := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	dotFile := flag.String("callgraph-dot", "", "write the interprocedural call graph to this file in Graphviz DOT form")
	certify := flag.String("certify", "", "comma-separated root functions to certify for determinism (e.g. internal/sim.Run)")
	certifyOut := flag.String("certify-out", "", "certificate output path, module-relative (default lint/determinism.cert.json; \"-\" for stdout)")
	flag.Usage = usage
	mode, err := parseFlags()
	if err == nil {
		switch mode {
		case "explain":
			err = runExplain(*explain)
		case "certify":
			err = runCertify(*tags, *certify, *certifyOut, flag.Args())
		default:
			err = run(*tags, *jsonOut, *subset, *dotFile, flag.Args())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsinlint:", err)
		os.Exit(2)
	}
}

// parseFlags parses the command line and chooses the mode. A bad flag
// is returned and reported like every other invalid invocation, on one
// line with exit status 2, instead of the flag package's message
// followed by the whole usage text; -h still prints the usage.
func parseFlags() (string, error) {
	flag.CommandLine.Init("rsinlint", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	}
	if err != nil {
		return "", err
	}
	return chooseMode(flag.CommandLine)
}

// modeFlags lists the flags each mode reads. Any other flag would be
// silently ignored, so chooseMode rejects it.
var modeFlags = map[string][]string{
	"explain": {"explain"},
	"certify": {"certify", "certify-out", "tags"},
	"lint":    {"tags", "json", "analyzers", "callgraph-dot"},
}

// chooseMode picks the mode from the flags set on fs (-explain, else
// -certify, else lint) and rejects flags and arguments that mode would
// ignore.
func chooseMode(fs *flag.FlagSet) (string, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode := "lint"
	switch {
	case set["explain"]:
		mode = "explain"
	case set["certify"]:
		mode = "certify"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil || slices.Contains(modeFlags[mode], f.Name):
		case mode == "lint":
			err = fmt.Errorf("-%s requires -certify", f.Name)
		default:
			err = fmt.Errorf("-%s has no effect with -%s", f.Name, mode)
		}
	})
	if err == nil && mode == "explain" && fs.NArg() > 0 {
		err = fmt.Errorf("-explain takes no package arguments (got %q)", fs.Arg(0))
	}
	return mode, err
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: rsinlint [-tags taglist] [-json] [-analyzers list] [-callgraph-dot file] [packages]\n"+
			"       rsinlint -certify <root>[,<root>...] [-tags taglist] [-certify-out file] [packages]\n"+
			"       rsinlint -explain <analyzer>\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
	for _, a := range lint.All() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, firstSentence(a.Doc))
	}
	fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", lint.SuppressAnalyzer,
		"problems with //lint:ignore directives themselves (reserved, not suppressible)")
}

func firstSentence(s string) string {
	if i := strings.Index(s, "; "); i >= 0 {
		return s[:i]
	}
	return s
}

func runExplain(name string) error {
	if name == lint.SuppressAnalyzer {
		fmt.Printf("%s:\n  Reserved analyzer name for problems with //lint:ignore directives:\n"+
			"  malformed syntax, unknown analyzer names, and directives whose finding\n"+
			"  is gone. These cannot be suppressed; fix or delete the directive.\n", name)
		return nil
	}
	for _, a := range lint.All() {
		if a.Name == name {
			fmt.Printf("%s:\n  %s\n", a.Name, strings.ReplaceAll(a.Doc, "; ", ";\n  "))
			return nil
		}
	}
	return fmt.Errorf("unknown analyzer %q (run with -h for the list)", name)
}

// selectAnalyzers resolves the -analyzers flag against the full set.
func selectAnalyzers(subset string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if subset == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(subset, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q in -analyzers (run with -h for the list)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing")
	}
	return out, nil
}

// writeDOT dumps the interprocedural call graph (hot nodes highlighted)
// as a Graphviz artifact for debugging.
func writeDOT(uni *lint.Universe, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := uni.Graph.WriteDOT(f, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finding is the JSON shape of one surviving diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type report struct {
	Findings   []finding `json:"findings"`
	Suppressed int       `json:"suppressed"`
}

// loadUniverse expands patterns, loads every target package, and
// builds the shared interprocedural universe over the result.
func loadUniverse(tags string, patterns []string) (pkgs []*lint.Package, uni *lint.Universe, loader *lint.Loader, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, nil, err
	}
	root, modPath, err := lint.FindModule(cwd)
	if err != nil {
		return nil, nil, nil, err
	}
	var tagList []string
	for _, t := range strings.Split(tags, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tagList = append(tagList, t)
		}
	}
	loader = lint.NewLoader(root, modPath, tagList)
	paths, err := loader.Packages(patterns)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, nil, fmt.Errorf("no packages match %v", patterns)
	}
	// Load everything first: the interprocedural universe (call graph,
	// summaries, hotpath marks) is built once over the whole target set
	// plus its module-local dependencies, then shared by every pass.
	pkgs = make([]*lint.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, lint.NewUniverse(loader), loader, nil
}

func run(tags string, jsonOut bool, subset, dotFile string, patterns []string) error {
	analyzers, err := selectAnalyzers(subset)
	if err != nil {
		return err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	pkgs, uni, loader, err := loadUniverse(tags, patterns)
	if err != nil {
		return err
	}
	if dotFile != "" {
		if err := writeDOT(uni, dotFile); err != nil {
			return err
		}
	}
	known := lint.KnownAnalyzers(lint.All())
	ran := lint.KnownAnalyzers(analyzers)
	out := report{Findings: []finding{}}
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, loader.Fset, analyzers, uni)
		if err != nil {
			return err
		}
		diags, suppressed := lint.ApplySuppressions(pkg, loader.Fset, diags, known, ran)
		out.Suppressed += suppressed
		for _, d := range diags {
			name := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			out.Findings = append(out.Findings, finding{
				File: name, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, f := range out.Findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(out.Findings) > 0 {
		os.Exit(1)
	}
	return nil
}

// runCertify implements -certify: close the named roots over the call
// graph, prove every member clean or print the witness chains, and
// write the byte-stable certificate.
func runCertify(tags, rootSpec, outPath string, patterns []string) error {
	_, uni, _, err := loadUniverse(tags, patterns)
	if err != nil {
		return err
	}
	var roots []string
	for _, r := range strings.Split(rootSpec, ",") {
		if r = strings.TrimSpace(r); r != "" {
			roots = append(roots, r)
		}
	}
	res, err := lint.Certify(uni, roots)
	if err != nil {
		return err
	}
	data, err := res.Cert.Render()
	if err != nil {
		return err
	}
	if outPath == "-" {
		os.Stdout.Write(data)
	} else {
		if outPath == "" {
			outPath = filepath.Join("lint", "determinism.cert.json")
		}
		if !filepath.IsAbs(outPath) {
			outPath = filepath.Join(uni.ModuleRoot, outPath)
		}
		if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
	}
	cwd, _ := os.Getwd()
	for _, d := range res.Findings {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if !res.Cert.Clean {
		fmt.Fprintf(os.Stderr, "rsinlint: certificate NOT clean: %d finding(s) over %d functions\n",
			len(res.Findings), res.Cert.Closure.Functions)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rsinlint: certified %s: %d functions across %d packages, clean\n",
		strings.Join(res.Cert.Roots, ", "), res.Cert.Closure.Functions, len(res.Cert.Closure.Packages))
	return nil
}
