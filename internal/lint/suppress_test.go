package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePkg parses src with comments and wraps it in a Package the way
// ApplySuppressions sees one.
func parsePkg(t *testing.T, src string) (*Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{Path: "p", Files: []*ast.File{file}}, fset
}

func diag(file string, line int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestSuppressSameLine(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore floatsafe denominator proven positive above
}
`
	pkg, fset := parsePkg(t, src)
	diags := []Diagnostic{diag("s.go", 4, "floatsafe", "float division")}
	kept, suppressed := ApplySuppressions(pkg, fset, diags, map[string]bool{"floatsafe": true}, nil)
	if suppressed != 1 || len(kept) != 0 {
		t.Fatalf("same-line directive: kept=%v suppressed=%d, want 0 kept / 1 suppressed", kept, suppressed)
	}
}

func TestSuppressLineAbove(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore errflow the error is logged by the callee
	_ = 0
}
`
	pkg, fset := parsePkg(t, src)
	diags := []Diagnostic{diag("s.go", 5, "errflow", "error never read")}
	kept, suppressed := ApplySuppressions(pkg, fset, diags, map[string]bool{"errflow": true}, nil)
	if suppressed != 1 || len(kept) != 0 {
		t.Fatalf("own-line directive: kept=%v suppressed=%d, want 0 kept / 1 suppressed", kept, suppressed)
	}
}

func TestSuppressWrongLineDoesNotMatch(t *testing.T) {
	src := `package p

//lint:ignore floatsafe too far from the finding

func f() {
	_ = 0
}
`
	pkg, fset := parsePkg(t, src)
	diags := []Diagnostic{diag("s.go", 6, "floatsafe", "float division")}
	kept, _ := ApplySuppressions(pkg, fset, diags, map[string]bool{"floatsafe": true}, nil)
	// The finding survives AND the directive is reported unused.
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2 (finding + unused directive): %v", len(kept), kept)
	}
	if !hasAnalyzer(kept, "floatsafe") || !hasAnalyzer(kept, SuppressAnalyzer) {
		t.Errorf("expected the original finding plus an unused-suppression report, got %v", kept)
	}
}

func TestSuppressMultiAnalyzer(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore floatsafe,errflow shared justification
}
`
	pkg, fset := parsePkg(t, src)
	known := map[string]bool{"floatsafe": true, "errflow": true}
	diags := []Diagnostic{
		diag("s.go", 4, "floatsafe", "float division"),
		diag("s.go", 4, "errflow", "error never read"),
		diag("s.go", 4, "probrange", "probability unchecked"),
	}
	kept, suppressed := ApplySuppressions(pkg, fset, diags, known, nil)
	if suppressed != 2 {
		t.Errorf("comma list should suppress both named analyzers, suppressed=%d", suppressed)
	}
	if len(kept) != 1 || kept[0].Analyzer != "probrange" {
		t.Errorf("unlisted analyzer must survive, kept=%v", kept)
	}
}

func TestSuppressUnused(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore floatsafe stale justification
}
`
	pkg, fset := parsePkg(t, src)
	kept, suppressed := ApplySuppressions(pkg, fset, nil, map[string]bool{"floatsafe": true}, nil)
	if suppressed != 0 {
		t.Errorf("nothing to suppress, suppressed=%d", suppressed)
	}
	if len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("unused directive must be reported, kept=%v", kept)
	}
	if !strings.Contains(kept[0].Message, "unused suppression") {
		t.Errorf("message should say the directive is unused: %q", kept[0].Message)
	}
}

func TestSuppressMalformed(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore floatsafe
}
`
	pkg, fset := parsePkg(t, src)
	kept, _ := ApplySuppressions(pkg, fset, nil, map[string]bool{"floatsafe": true}, nil)
	if len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("directive without a reason must be reported malformed, kept=%v", kept)
	}
	if !strings.Contains(kept[0].Message, "malformed") {
		t.Errorf("message should say malformed: %q", kept[0].Message)
	}
}

func TestSuppressUnknownAnalyzer(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore nosuchcheck because reasons
}
`
	pkg, fset := parsePkg(t, src)
	kept, _ := ApplySuppressions(pkg, fset, nil, map[string]bool{"floatsafe": true}, nil)
	if len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("unknown analyzer name must be reported, kept=%v", kept)
	}
	if !strings.Contains(kept[0].Message, "unknown analyzer nosuchcheck") {
		t.Errorf("message should name the unknown analyzer: %q", kept[0].Message)
	}
}

func TestSuppressCannotSilenceItself(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore suppression trying to silence the meta-check
}
`
	pkg, fset := parsePkg(t, src)
	kept, _ := ApplySuppressions(pkg, fset, nil, map[string]bool{"floatsafe": true, SuppressAnalyzer: true}, nil)
	if len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("the suppression meta-analyzer is reserved, kept=%v", kept)
	}
}

func TestSuppressFunctionExtent(t *testing.T) {
	src := `package p

//lint:ignore hotalloc pool appends amortize; pinned by TestPoolZeroAlloc
func hot() {
	_ = 0
	_ = 1
}

func other() {
	_ = 2
}
`
	pkg, fset := parsePkg(t, src)
	diags := []Diagnostic{
		diag("s.go", 5, "hotalloc", "hot path p.hot: growing append"),
		diag("s.go", 6, "hotalloc", "hot path p.hot: call may allocate: p.helper → make"),
		diag("s.go", 6, "noclock", "wall-clock time.Now"),
		diag("s.go", 10, "hotalloc", "hot path p.other: make"),
	}
	known := map[string]bool{"hotalloc": true, "noclock": true}
	kept, suppressed := ApplySuppressions(pkg, fset, diags, known, nil)
	// The doc directive covers every hotalloc finding in hot's body —
	// including ones far below the directive line — but neither other
	// analyzers in the same body nor findings in the next function.
	if suppressed != 2 {
		t.Errorf("function-extent directive suppressed %d, want 2", suppressed)
	}
	if len(kept) != 2 || !hasAnalyzer(kept, "noclock") || !hasAnalyzer(kept, "hotalloc") {
		t.Fatalf("kept %v, want the noclock finding and other's hotalloc finding", kept)
	}
	for _, d := range kept {
		if d.Analyzer == "hotalloc" && d.Pos.Line != 10 {
			t.Errorf("suppression leaked out of the declaration: kept %v", d)
		}
	}
}

func TestSuppressFunctionExtentUnused(t *testing.T) {
	src := `package p

//lint:ignore hotalloc the body was rewritten and allocates nowhere
func cold() {
	_ = 0
}
`
	pkg, fset := parsePkg(t, src)
	kept, suppressed := ApplySuppressions(pkg, fset, nil, map[string]bool{"hotalloc": true}, nil)
	if suppressed != 0 || len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("stale whole-function directive must surface as unused, kept=%v", kept)
	}
}

func TestSuppressSubsetRun(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore floatsafe denominator proven positive above
	_ = 1 //lint:ignore hotalloc stale hot-path justification
}
`
	pkg, fset := parsePkg(t, src)
	known := map[string]bool{"floatsafe": true, "hotalloc": true}
	ran := map[string]bool{"hotalloc": true}
	kept, suppressed := ApplySuppressions(pkg, fset, nil, known, ran)
	// Under -analyzers hotalloc the floatsafe directive never had a
	// chance to fire and must not be called stale; the hotalloc one ran
	// dry and must be.
	if suppressed != 0 || len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
		t.Fatalf("subset run kept %v, want exactly the stale hotalloc directive", kept)
	}
	if !strings.Contains(kept[0].Message, "hotalloc") {
		t.Errorf("unused report should name hotalloc, got %q", kept[0].Message)
	}
	if kept[0].Pos.Line != 5 {
		t.Errorf("unused report at line %d, want 5 (the hotalloc directive)", kept[0].Pos.Line)
	}
}

// TestSuppressPartialNeverStale is the regression for the
// puredet/-analyzers interplay: a puredet directive's finding only
// materializes under -certify, so no regular sweep — full run, subset
// run naming puredet, or subset run without it — may report the
// directive as stale. A stale directive for an ordinary analyzer in the
// same file must still surface.
func TestSuppressPartialNeverStale(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore puredet progress callback consumes counts only
	_ = 1 //lint:ignore norand stale justification
}
`
	pkg, fset := parsePkg(t, src)
	known := map[string]bool{"puredet": true, "norand": true}
	for name, ran := range map[string]map[string]bool{
		"full run":               nil,
		"subset with puredet":    {"puredet": true, "norand": true},
		"subset without puredet": {"norand": true},
	} {
		kept, suppressed := ApplySuppressions(pkg, fset, nil, known, ran)
		if suppressed != 0 {
			t.Errorf("%s: suppressed %d diagnostics of none", name, suppressed)
		}
		if len(kept) != 1 || kept[0].Analyzer != SuppressAnalyzer {
			t.Fatalf("%s: kept %v, want exactly the stale norand report", name, kept)
		}
		if strings.Contains(kept[0].Message, "puredet") {
			t.Errorf("%s: puredet directive reported stale: %q", name, kept[0].Message)
		}
		if !strings.Contains(kept[0].Message, "norand") {
			t.Errorf("%s: stale report should name norand, got %q", name, kept[0].Message)
		}
	}
}

// TestSuppressPartialStillSuppresses: exempting puredet from the
// staleness check must not stop its directives from suppressing when
// the certifier does produce the finding.
func TestSuppressPartialStillSuppresses(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //lint:ignore puredet hook installed once before certification
}
`
	pkg, fset := parsePkg(t, src)
	diags := []Diagnostic{diag("s.go", 4, "puredet", "certification obligation: indirect call")}
	ran := map[string]bool{"puredet": true}
	kept, sups, problems := ApplySuppressionsDetail(pkg, fset, diags, map[string]bool{"puredet": true}, ran)
	if len(kept) != 0 || len(problems) != 0 {
		t.Fatalf("kept=%v problems=%v, want both empty", kept, problems)
	}
	if len(sups) != 1 || sups[0].Reason != "hook installed once before certification" {
		t.Fatalf("suppressions %v, want one carrying the directive reason", sups)
	}
}

func hasAnalyzer(diags []Diagnostic, name string) bool {
	for _, d := range diags {
		if d.Analyzer == name {
			return true
		}
	}
	return false
}
