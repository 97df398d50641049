package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"rsin/internal/lint/cfg"
)

// analyze type-checks src (a complete file body without the package
// clause), builds the named function's CFG, and runs Analyze on it.
func analyze(t *testing.T, src, fnName string) (*token.FileSet, string, *Info) {
	t.Helper()
	full := "package p\n" + src
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", full, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tinfo := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, tinfo); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != fnName {
			continue
		}
		g := cfg.New(fn.Body, cfg.Options{})
		return fset, full, Analyze(fn, g, tinfo)
	}
	t.Fatalf("function %s not found", fnName)
	return nil, "", nil
}

// identAt finds the identifier named name whose position matches the
// idx-th occurrence (0-based) of marker in the source.
func identAt(t *testing.T, fset *token.FileSet, in *Info, full, marker string, occurrence int) *ast.Ident {
	t.Helper()
	off := -1
	for i := 0; i <= occurrence; i++ {
		next := strings.Index(full[off+1:], marker)
		if next < 0 {
			t.Fatalf("occurrence %d of %q not found", occurrence, marker)
		}
		off += 1 + next
	}
	var found *ast.Ident
	ast.Inspect(in.Fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && fset.Position(id.Pos()).Offset == off {
			found = id
		}
		return true
	})
	if found == nil {
		t.Fatalf("no identifier at offset %d (marker %q #%d)", off, marker, occurrence)
	}
	return found
}

func defOf(t *testing.T, in *Info, varName string, which int) *Def {
	t.Helper()
	n := 0
	for _, d := range in.Defs {
		if d.Var.Name() == varName {
			if n == which {
				return d
			}
			n++
		}
	}
	t.Fatalf("definition #%d of %s not found (have %d defs total)", which, varName, len(in.Defs))
	return nil
}

func TestReachingAcrossBranches(t *testing.T) {
	src := `func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`
	fset, full, in := analyze(t, src, "f")
	// The x in `return x` is reached by both definitions.
	retX := identAt(t, fset, in, full, "x\n}", 0)
	defs := in.UseDefs(retX)
	if len(defs) != 2 {
		t.Fatalf("use-defs at merge point = %d defs, want 2", len(defs))
	}
	d0, d1 := defOf(t, in, "x", 0), defOf(t, in, "x", 1)
	if !(containsDef(defs, d0) && containsDef(defs, d1)) {
		t.Errorf("both the init and the branch assignment should reach the return")
	}
}

func TestReachingKilledByUnconditionalRedefine(t *testing.T) {
	src := `func f() int {
	x := 1
	x = 2
	return x
}`
	fset, full, in := analyze(t, src, "f")
	retX := identAt(t, fset, in, full, "x\n}", 0)
	defs := in.UseDefs(retX)
	if len(defs) != 1 {
		t.Fatalf("use-defs after straight-line redefine = %d defs, want 1", len(defs))
	}
	if defs[0] != defOf(t, in, "x", 1) {
		t.Errorf("only the second definition should reach the return")
	}
}

func TestUseDefsInLoop(t *testing.T) {
	src := `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`
	fset, full, in := analyze(t, src, "f")
	// The s on the right-hand side inside the loop sees both the init
	// and the previous iteration's assignment.
	rhsS := identAt(t, fset, in, full, "s + i", 0)
	defs := in.UseDefs(rhsS)
	if len(defs) != 2 {
		t.Fatalf("loop body read sees %d defs, want 2 (init + back edge)", len(defs))
	}
}

func TestParamsAreDefs(t *testing.T) {
	src := `func f(a int) int {
	return a
}`
	fset, full, in := analyze(t, src, "f")
	retA := identAt(t, fset, in, full, "a\n}", 0)
	defs := in.UseDefs(retA)
	if len(defs) != 1 || defs[0].Index != -1 {
		t.Fatalf("parameter read should resolve to the synthetic param def (Index -1), got %+v", defs)
	}
	if defs[0].HasInit {
		t.Errorf("parameter defs carry no computed initializer")
	}
}

func TestDeadPathNone(t *testing.T) {
	src := `func g() int { return 1 }
func f() int {
	x := g()
	return x
}`
	_, _, in := analyze(t, src, "f")
	kind, _ := in.DeadPath(defOf(t, in, "x", 0))
	if kind != DeadNone {
		t.Errorf("read definition reported dead (kind %v)", kind)
	}
}

func TestDeadPathAtExit(t *testing.T) {
	src := `func g() int { return 1 }
func f(skip bool) int {
	x := g()
	if skip {
		return 0
	}
	return x
}`
	_, _, in := analyze(t, src, "f")
	kind, _ := in.DeadPath(defOf(t, in, "x", 0))
	if kind != DeadAtExit {
		t.Errorf("definition skipped by an early return should be DeadAtExit, got %v", kind)
	}
}

func TestDeadPathOverwritten(t *testing.T) {
	src := `func g() int { return 1 }
func f() int {
	x := g()
	x = g()
	return x
}`
	fset, _, in := analyze(t, src, "f")
	kind, pos := in.DeadPath(defOf(t, in, "x", 0))
	if kind != DeadOverwritten {
		t.Fatalf("shadowed definition should be DeadOverwritten, got %v", kind)
	}
	// Line 1 is the synthetic package clause; `x = g()` sits on line 5.
	if line := fset.Position(pos).Line; line != 5 {
		t.Errorf("overwrite reported at line %d, want 5", line)
	}
}

func TestDeadPathUpdateIsNotAKill(t *testing.T) {
	src := `func f() int {
	x := 1
	x += 2
	return x
}`
	_, _, in := analyze(t, src, "f")
	kind, _ := in.DeadPath(defOf(t, in, "x", 0))
	if kind != DeadNone {
		t.Errorf("x += reads the prior value; the first def is live, got %v", kind)
	}
}

func TestDeferredClosureReads(t *testing.T) {
	src := `func g() int { return 1 }
func f() (n int) {
	x := 0
	defer func() { n = x }()
	x = g()
	return 0
}`
	_, _, in := analyze(t, src, "f")
	// The second definition of x is only read by the deferred closure,
	// which the CFG places in the Exit block — it must count as a read.
	kind, _ := in.DeadPath(defOf(t, in, "x", 1))
	if kind != DeadNone {
		t.Errorf("deferred closure read should keep the definition live, got %v", kind)
	}
}

func TestNamedResultBareReturn(t *testing.T) {
	src := `func g() int { return 1 }
func f() (n int) {
	n = g()
	return
}`
	_, _, in := analyze(t, src, "f")
	kind, _ := in.DeadPath(defOf(t, in, "n", 1))
	if kind != DeadNone {
		t.Errorf("bare return reads named results; definition must be live, got %v", kind)
	}
}

func TestRangeHeadDefines(t *testing.T) {
	src := `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`
	fset, full, in := analyze(t, src, "f")
	d := defOf(t, in, "x", 0)
	if _, ok := d.Node.(*cfg.RangeHead); !ok {
		t.Errorf("range variable def node is %T, want *cfg.RangeHead", d.Node)
	}
	// The body read resolves back to the range-head definition.
	x := identAt(t, fset, in, full, "x\n\t}", 0)
	defs := in.UseDefs(x)
	if !containsDef(defs, d) {
		t.Errorf("body read of the range variable should resolve to the RangeHead def")
	}
	// The head's false edge leaves the loop without reading x, so the
	// definition is (by design) dead at exit — errflow filters range
	// defs out precisely because of this.
	kind, _ := in.DeadPath(d)
	if kind != DeadAtExit {
		t.Errorf("range def with a body-only read should be DeadAtExit, got %v", kind)
	}
}

func containsDef(defs []*Def, d *Def) bool {
	for _, x := range defs {
		if x == d {
			return true
		}
	}
	return false
}
