package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

var wantRe = regexp.MustCompile(`// want "(.*)"`)

// runTestdata type-checks the testdata package in dir under the given
// virtual import path, runs one analyzer, and matches its diagnostics
// against the `// want "regex"` comments in the sources: every want
// must be hit on its own line, and every diagnostic must be wanted.
// With expectClean set, want comments are ignored and any diagnostic
// fails the test — used to prove analyzers stay silent out of scope.
func runTestdata(t *testing.T, a *Analyzer, dir, virtualPath string, expectClean bool) {
	t.Helper()
	root, mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, mod, nil)
	abs, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(virtualPath, abs)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, l.Fset, []*Analyzer{a}, NewUniverse(l))
	if err != nil {
		t.Fatal(err)
	}
	if expectClean {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic in out-of-scope load %s at %s:%d: %s",
				virtualPath, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
		return
	}
	type want struct {
		line    int
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				wants = append(wants, &want{line: l.Fset.Position(c.Pos()).Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("testdata %s has no want comments", dir)
	}
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at line %d matching %q", w.line, w.re)
		}
	}
}

func TestNoRand(t *testing.T) {
	runTestdata(t, NoRand, "norand", "rsin/testdata/norand", false)
}

// TestNoRandExempt loads the violating sources as the rng package
// itself, where the import is the whole point.
func TestNoRandExempt(t *testing.T) {
	runTestdata(t, NoRand, "norand", "rsin/internal/rng", true)
}

func TestNoClock(t *testing.T) {
	runTestdata(t, NoClock, "noclock", "rsin/internal/sim", false)
}

// TestNoClockInCmd: the CLIs are NOT exempt — they must time themselves
// through obs.Stopwatch so all wall-clock reads live in the telemetry
// layer.
func TestNoClockInCmd(t *testing.T) {
	runTestdata(t, NoClock, "noclock", "rsin/cmd/rsinsim", false)
}

// TestNoClockInRunner loads the same clock-reading sources as the
// runner package, whose execution telemetry legitimately reads the
// clock.
func TestNoClockInRunner(t *testing.T) {
	runTestdata(t, NoClock, "noclock", "rsin/internal/runner", true)
}

// TestNoClockInObs: the observability package's wall-clock half
// (Stopwatch, Sink timing) is the other sanctioned home.
func TestNoClockInObs(t *testing.T) {
	runTestdata(t, NoClock, "noclock", "rsin/internal/obs", true)
}

func TestSeedFlow(t *testing.T) {
	runTestdata(t, SeedFlow, "seedflow", "rsin/internal/experiments", false)
}

// TestSeedFlowOutsideSweeps loads the same sources under a path the
// seed contract does not govern.
func TestSeedFlowOutsideSweeps(t *testing.T) {
	runTestdata(t, SeedFlow, "seedflow", "rsin/testdata/seedflow", true)
}

func TestFloatSafe(t *testing.T) {
	runTestdata(t, FloatSafe, "floatsafe", "rsin/internal/markov", false)
}

// TestFloatSafeOutsideModels loads the same hazards under a path the
// float-safety contract does not govern.
func TestFloatSafeOutsideModels(t *testing.T) {
	runTestdata(t, FloatSafe, "floatsafe", "rsin/testdata/floatsafe", true)
}

func TestErrFlow(t *testing.T) {
	runTestdata(t, ErrFlow, "errflow", "rsin/testdata/errflow", false)
}

func TestProbRange(t *testing.T) {
	runTestdata(t, ProbRange, "probrange", "rsin/cmd/probrange", false)
}

// TestProbRangeOutsideOutputs loads the printing sources as a model
// package, outside the output layer the check governs.
func TestProbRangeOutsideOutputs(t *testing.T) {
	runTestdata(t, ProbRange, "probrange", "rsin/internal/markov", true)
}

// TestHotAlloc covers the full may-allocate taxonomy plus the
// interprocedural findings: transitive chains, interface calls resolved
// by CHA, external and dynamic calls, statement-level hot regions,
// coldpath excision, hot-callee deduplication, and unmatched
// directives.
func TestHotAlloc(t *testing.T) {
	runTestdata(t, HotAlloc, "hotalloc", "rsin/testdata/hotalloc", false)
}

// TestPureDet covers the hazard classes of the determinism analyzer:
// every package-level write form, goroutine spawns, scheduler-dependent
// channel operations, and map-order leaks both direct (every leaking
// statement, init included) and through a call chain — plus the
// negatives (locals, init writes, collect-then-sort, pure range
// callees) via the Good cases and clean.go in the same package.
func TestPureDet(t *testing.T) {
	runTestdata(t, PureDet, "puredet", "rsin/testdata/puredet", false)
}

// TestPureDetInLintTree loads the same fixture under the lint tool's
// own import path: the check covers the whole module, the lint subtree
// included.
func TestPureDetInLintTree(t *testing.T) {
	runTestdata(t, PureDet, "puredet", "rsin/internal/lint/testdata/puredet", false)
}

// TestPureDetConcurrency / TestPureDetRunnerConcExempt load the same
// goroutine-and-channel fixture twice: reported under a testdata path,
// silent under the concurrency-exempt runner path.
func TestPureDetConcurrency(t *testing.T) {
	runTestdata(t, PureDet, "puredetconc", "rsin/testdata/puredetconc", false)
}

func TestPureDetRunnerConcExempt(t *testing.T) {
	runTestdata(t, PureDet, "puredetconc", "rsin/internal/runner", true)
}

// TestRepoIsClean runs every analyzer over the whole module and
// applies the //lint:ignore suppressions — the same contract CI
// enforces through cmd/rsinlint. Unused or malformed directives
// surface here as "suppression" diagnostics.
func TestRepoIsClean(t *testing.T) {
	root, mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, mod, nil)
	paths, err := l.Packages([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no packages found under module root")
	}
	known := KnownAnalyzers(All())
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	uni := NewUniverse(l)
	for _, pkg := range pkgs {
		diags, err := Run(pkg, l.Fset, All(), uni)
		if err != nil {
			t.Fatal(err)
		}
		kept, _ := ApplySuppressions(pkg, l.Fset, diags, known, nil)
		for _, d := range kept {
			t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
}

// TestPackagesSkipsTestdata pins the pattern walker's exclusions.
func TestPackagesSkipsTestdata(t *testing.T) {
	root, mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, mod, nil)
	paths, err := l.Packages([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if regexp.MustCompile(`/testdata(/|$)`).MatchString(p) {
			t.Errorf("pattern walk leaked testdata package %s", p)
		}
	}
}
