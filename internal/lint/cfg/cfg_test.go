package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as the body of the first function declaration in a
// synthetic file and returns its graph.
func build(t *testing.T, src string, opt Options) (*token.FileSet, *ast.FuncDecl, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			return fset, fn, New(fn.Body, opt)
		}
	}
	t.Fatal("no function declaration in source")
	return nil, nil, nil
}

// blockOf locates the block holding the statement whose source text
// (via the position's offset into src) starts with marker.
func blockOf(t *testing.T, fset *token.FileSet, g *Graph, src, marker string) (*Block, int) {
	t.Helper()
	off := strings.Index("package p\n"+src, marker)
	if off < 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	var base token.Pos
	fset.Iterate(func(f *token.File) bool { base = token.Pos(f.Base()); return false })
	blk, idx := g.FindNode(base + token.Pos(off))
	if blk == nil {
		t.Fatalf("no block holds marker %q", marker)
	}
	return blk, idx
}

// dominates reports whether a dominates b, reflexively, by walking b's
// immediate dominators up to the entry block.
func dominates(dt *DomTree, a, b *Block) bool {
	for ; b != nil; b = dt.Idom(b) {
		if b == a {
			return true
		}
	}
	return false
}

func TestBranchAndJoin(t *testing.T) {
	src := `func f(a int) int {
	x := 1
	if a > 0 {
		x = 2
	} else {
		x = 3
	}
	return x
}`
	fset, _, g := build(t, src, Options{})
	condBlk, _ := blockOf(t, fset, g, src, "a > 0")
	thenBlk, _ := blockOf(t, fset, g, src, "x = 2")
	elseBlk, _ := blockOf(t, fset, g, src, "x = 3")
	retBlk, _ := blockOf(t, fset, g, src, "return x")

	if len(condBlk.Succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(condBlk.Succs))
	}
	if condBlk.Succs[0] != thenBlk || condBlk.Succs[1] != elseBlk {
		t.Errorf("condition edges are not (true→then, false→else)")
	}
	dt := g.Dominators()
	if !dominates(dt, condBlk, retBlk) {
		t.Errorf("condition block should dominate the join")
	}
	if dominates(dt, thenBlk, retBlk) || dominates(dt, elseBlk, retBlk) {
		t.Errorf("neither arm should dominate the join")
	}
	if len(retBlk.Succs) != 1 || retBlk.Succs[0] != g.Exit {
		t.Errorf("return block should edge to Exit")
	}
}

func TestShortCircuitLowering(t *testing.T) {
	src := `func f(x, y float64) float64 {
	if x != 0 && y/x > 1 {
		return y
	}
	return 0
}`
	fset, _, g := build(t, src, Options{})
	left, _ := blockOf(t, fset, g, src, "x != 0")
	right, _ := blockOf(t, fset, g, src, "y/x > 1")
	then, _ := blockOf(t, fset, g, src, "return y")

	if left == right {
		t.Fatalf("short-circuit operands share a block; want separate leaf blocks")
	}
	// x != 0: true edge enters the right operand, false edge skips it.
	if len(left.Succs) != 2 || left.Succs[0] != right {
		t.Errorf("left leaf's true edge should enter the right operand block")
	}
	dt := g.Dominators()
	if !dominates(dt, left, right) {
		t.Errorf("left operand should dominate right operand")
	}
	if !dominates(dt, right, then) {
		t.Errorf("right operand should dominate the then block")
	}
	if dominates(dt, right, left) {
		t.Errorf("dominance the wrong way around")
	}
}

func TestLoop(t *testing.T) {
	src := `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	fset, _, g := build(t, src, Options{})
	head, _ := blockOf(t, fset, g, src, "i < n")
	body, _ := blockOf(t, fset, g, src, "s += i")
	post, _ := blockOf(t, fset, g, src, "i++")
	ret, _ := blockOf(t, fset, g, src, "return s")

	if len(head.Succs) != 2 || head.Succs[0] != body || head.Succs[1] != ret {
		t.Errorf("loop head should branch (true→body, false→join)")
	}
	if len(body.Succs) != 1 || body.Succs[0] != post {
		t.Errorf("body should flow to the post statement")
	}
	if len(post.Succs) != 1 || post.Succs[0] != head {
		t.Errorf("post should loop back to the head")
	}
	dt := g.Dominators()
	if !dominates(dt, head, body) || !dominates(dt, head, ret) {
		t.Errorf("loop head should dominate body and join")
	}
	if dominates(dt, body, ret) {
		t.Errorf("loop body must not dominate the join (the loop may run zero times)")
	}
}

func TestRangeLoop(t *testing.T) {
	src := `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`
	fset, _, g := build(t, src, Options{})
	head, idx := blockOf(t, fset, g, src, "range xs")
	if _, ok := head.Stmts[idx].(*RangeHead); !ok {
		t.Fatalf("loop head statement is %T, want *RangeHead", head.Stmts[idx])
	}
	body, _ := blockOf(t, fset, g, src, "s += x")
	ret, _ := blockOf(t, fset, g, src, "return s")
	if len(head.Succs) != 2 || head.Succs[0] != body || head.Succs[1] != ret {
		t.Errorf("range head should branch to body and join")
	}
	if len(body.Succs) != 1 || body.Succs[0] != head {
		t.Errorf("range body should loop back to the head")
	}
}

func TestDeferRunsAtExit(t *testing.T) {
	src := `func f() {
	defer first()
	defer second()
	work()
}`
	fset, _, g := build(t, src, Options{})
	_ = fset
	var calls []string
	for _, s := range g.Exit.Stmts {
		call, ok := s.(*ast.CallExpr)
		if !ok {
			t.Fatalf("Exit holds %T, want *ast.CallExpr", s)
		}
		calls = append(calls, call.Fun.(*ast.Ident).Name)
	}
	if len(calls) != 2 || calls[0] != "second" || calls[1] != "first" {
		t.Errorf("deferred calls in Exit = %v, want [second first] (LIFO)", calls)
	}
}

func TestPanicTerminatesPath(t *testing.T) {
	src := `func f(bad bool) int {
	if bad {
		panic("no")
	}
	return 1
}`
	fset, _, g := build(t, src, Options{})
	panicBlk, _ := blockOf(t, fset, g, src, `panic("no")`)
	found := false
	for _, s := range panicBlk.Succs {
		if s == g.Exit {
			found = true
		}
	}
	if !found {
		t.Errorf("panic block should edge to Exit")
	}
	for _, s := range panicBlk.Succs {
		if s != g.Exit {
			t.Errorf("panic block has a successor other than Exit")
		}
	}
}

func TestNoReturnCallback(t *testing.T) {
	src := `func f() int {
	die()
	return 1
}`
	fset, _, g := build(t, src, Options{NoReturn: func(c *ast.CallExpr) bool {
		id, ok := c.Fun.(*ast.Ident)
		return ok && id.Name == "die"
	}})
	ret, _ := blockOf(t, fset, g, src, "return 1")
	dt := g.Dominators()
	if dt.Reachable(ret) {
		t.Errorf("code after a no-return call should be unreachable")
	}
}

func TestBreakContinue(t *testing.T) {
	src := `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`
	fset, _, g := build(t, src, Options{})
	post, _ := blockOf(t, fset, g, src, "i++")
	ret, _ := blockOf(t, fset, g, src, "return s")
	cond3, _ := blockOf(t, fset, g, src, "i == 3")
	cond7, _ := blockOf(t, fset, g, src, "i == 7")

	// Branch statements become edges, not stored nodes: the true edge of
	// each condition must lead (through the empty branch block) to the
	// loop post / loop join respectively.
	if !reaches(cond3.Succs[0], post, 2) {
		t.Errorf("continue path should reach the post block")
	}
	if !reaches(cond7.Succs[0], ret, 2) {
		t.Errorf("break path should reach the loop join")
	}
}

// reaches walks empty pass-through blocks up to depth hops looking for
// target.
func reaches(b, target *Block, depth int) bool {
	if b == target {
		return true
	}
	if depth == 0 {
		return false
	}
	for _, s := range b.Succs {
		if len(b.Stmts) == 0 && reaches(s, target, depth-1) {
			return true
		}
	}
	return false
}

func TestSwitchClauses(t *testing.T) {
	src := `func f(k int) int {
	switch k {
	case 1:
		return 10
	case 2:
		return 20
	default:
		return 0
	}
}`
	fset, _, g := build(t, src, Options{})
	c1, _ := blockOf(t, fset, g, src, "return 10")
	c2, _ := blockOf(t, fset, g, src, "return 20")
	def, _ := blockOf(t, fset, g, src, "return 0")
	dt := g.Dominators()
	for name, blk := range map[string]*Block{"case 1": c1, "case 2": c2, "default": def} {
		if !dt.Reachable(blk) {
			t.Errorf("%s body should be reachable", name)
		}
	}
	if dominates(dt, c1, c2) || dominates(dt, c2, def) {
		t.Errorf("sibling case bodies must not dominate each other")
	}
}

func TestFindNodeMissesNestedLiterals(t *testing.T) {
	src := `func f() {
	g := func() int { return 7 }
	_ = g
}`
	fset, _, g := build(t, src, Options{})
	// A position inside the literal resolves to the enclosing statement.
	blk, idx := blockOf(t, fset, g, src, "return 7")
	if _, ok := blk.Stmts[idx].(*ast.AssignStmt); !ok {
		t.Errorf("position inside a FuncLit should resolve to the enclosing statement, got %T", blk.Stmts[idx])
	}
}
