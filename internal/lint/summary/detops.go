package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"rsin/internal/lint/callgraph"
)

// This file holds the direct-operation scanners behind the determinism
// facts (WritesGlobal, RangesMapToSink, SpawnsGoroutine, SelectsNondet,
// EmitsOutput). Like the allocation taxonomy in ops.go they are
// deliberately may-analyses: a flagged operation can happen, not must.
// The summary layer folds them to a fixed point over the call graph;
// the puredet analyzer and the certify mode apply policy on top.

// DetOp is one direct determinism-relevant operation.
type DetOp struct {
	Pos  token.Pos
	What string
}

// StepRangeCall is the What of a witness step that leaves a map-range
// body through a call edge. A RangesMapToSink chain starting with it
// (or with a terminal operation) is grounded in that function — the
// map range is lexically there — as opposed to inherited from a callee
// through a plain "calls" step.
const StepRangeCall = "calls from range over map"

// packageLevelVar reports whether obj is a mutable package-level
// variable (not a constant, not a local, not a field).
func packageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Pkg().Scope().Lookup(v.Name()) == v
}

// writeRoot peels an assignable expression down to its base identifier:
// g, g[i], g.f, *g, g.f[i].x all root at g. It returns nil when the
// base is not a plain identifier (a call result, a composite literal).
func writeRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// globalWritten reports the package-level variable e writes through, if
// any. Writing *p where p is a global pointer mutates what the global
// points at — shared state either way — so indirection does not launder
// the write.
func globalWritten(info *types.Info, e ast.Expr) (*types.Var, bool) {
	id := writeRoot(e)
	if id == nil {
		return nil, false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj != nil && packageLevelVar(obj) {
		return obj.(*types.Var), true
	}
	return nil, false
}

// GlobalWriteOps scans root for direct writes to package-level state:
// plain and compound assignments, ++/--, map writes and delete() on a
// global map, and append whose result lands back in a global. skip
// prunes cold subtrees exactly as in AllocOpsIn.
func GlobalWriteOps(info *types.Info, root ast.Node, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	add := func(pos token.Pos, what string) { ops = append(ops, DetOp{Pos: pos, What: what}) }
	walkHot(root, skip, func(nd ast.Node) {
		switch n := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, ok := globalWritten(info, lhs); ok {
					verb := "assigns"
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						verb = "compound-assigns"
					}
					if ix, isIx := ast.Unparen(lhs).(*ast.IndexExpr); isIx && isMap(info.TypeOf(ix.X)) {
						verb = "map-writes"
					}
					add(lhs.Pos(), verb+" package-level "+v.Pkg().Name()+"."+v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v, ok := globalWritten(info, n.X); ok {
				add(n.Pos(), "increments package-level "+v.Pkg().Name()+"."+v.Name())
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return
			}
			b, ok := info.Uses[id].(*types.Builtin)
			if !ok || b.Name() != "delete" || len(n.Args) < 1 {
				return
			}
			if v, ok := globalWritten(info, n.Args[0]); ok {
				add(n.Pos(), "deletes from package-level "+v.Pkg().Name()+"."+v.Name())
			}
		}
	})
	return ops
}

// sinkCall classifies a call that externalizes data: fmt printing
// (Print*, Fprint* — Sprint* returns a value and is not a sink),
// io.WriteString/io.Copy, os.Stdout/os.Stderr method calls, and
// Write/WriteString/WriteByte/WriteRune methods invoked on a value of
// an io.Writer-shaped interface type. Writes into concrete local
// builders (strings.Builder, bytes.Buffer) are not sinks here — if the
// built string escapes through a writer the enclosing call chain is
// flagged at that boundary instead.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			path, name := pn.Imported().Path(), sel.Sel.Name
			switch {
			case path == "fmt" && (hasPrefix(name, "Print") || hasPrefix(name, "Fprint")):
				return "prints via fmt." + name, true
			case path == "io" && (name == "WriteString" || name == "Copy"):
				return "writes via io." + name, true
			case path == "os" && (name == "Stdout" || name == "Stderr"):
				return "writes to os." + name, true
			}
			return "", false
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		t := info.TypeOf(sel.X)
		if t != nil && types.IsInterface(t) {
			return "writes through interface writer ." + sel.Sel.Name, true
		}
	}
	return "", false
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// SinkOps scans root for direct output operations (the grounding ops of
// the EmitsOutput fact).
func SinkOps(info *types.Info, root ast.Node, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	walkHot(root, skip, func(nd ast.Node) {
		if call, ok := nd.(*ast.CallExpr); ok {
			if what, ok := sinkCall(info, call); ok {
				ops = append(ops, DetOp{Pos: call.Pos(), What: what})
			}
		}
	})
	return ops
}

// SpawnOps scans root for goroutine launches.
func SpawnOps(root ast.Node, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	walkHot(root, skip, func(nd ast.Node) {
		if g, ok := nd.(*ast.GoStmt); ok {
			ops = append(ops, DetOp{Pos: g.Pos(), What: "spawns goroutine"})
		}
	})
	return ops
}

// SelectOps scans root for scheduler-order-dependent channel
// operations: select statements with more than one ready path (two or
// more comm clauses, or any default clause, which races the
// scheduler), and bare channel receives, whose value order depends on
// goroutine interleaving whenever more than one sender exists.
func SelectOps(info *types.Info, root ast.Node, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	add := func(pos token.Pos, what string) { ops = append(ops, DetOp{Pos: pos, What: what}) }
	walkHot(root, skip, func(nd ast.Node) {
		switch n := nd.(type) {
		case *ast.SelectStmt:
			comm, hasDefault := 0, false
			for _, cl := range n.Body.List {
				if c, ok := cl.(*ast.CommClause); ok {
					if c.Comm == nil {
						hasDefault = true
					} else {
						comm++
					}
				}
			}
			switch {
			case hasDefault:
				add(n.Pos(), "select with default clause (outcome depends on scheduler timing)")
			case comm > 1:
				add(n.Pos(), "multi-case select (ready-case choice is randomized)")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.Pos(), "channel receive (delivery order depends on goroutine interleaving)")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(n.Pos(), "range over channel (delivery order depends on goroutine interleaving)")
				}
			}
		}
	})
	return ops
}

// mapRanges collects the range-over-map loops lexically in root.
func mapRanges(info *types.Info, root ast.Node, skip func(ast.Node) bool) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	walkHot(root, skip, func(nd ast.Node) {
		if rng, ok := nd.(*ast.RangeStmt); ok && isMap(info.TypeOf(rng.X)) {
			out = append(out, rng)
		}
	})
	return out
}

// MapOrderOps scans a function body for every direct map-order leak:
// each statement inside a range-over-map loop that lets the randomized
// iteration order out (see rangeSinkOps). An operation inside nested
// map ranges is reported once. These are the grounding operations of
// the RangesMapToSink fact; skip prunes cold subtrees as in AllocOpsIn.
func MapOrderOps(info *types.Info, body ast.Node, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	seen := map[token.Pos]bool{}
	for _, rng := range mapRanges(info, body, skip) {
		for _, op := range rangeSinkOps(info, body, rng, skip) {
			if !seen[op.Pos] {
				seen[op.Pos] = true
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// rangeSinkOps reports the direct order leaks inside a map-range body,
// one per leaking statement: an output call (including a
// Write/WriteString/WriteByte/WriteRune method on a receiver declared
// outside the loop, such as a *strings.Builder parameter), a write to
// package-level state, or an append into an accumulator declared
// outside the loop that is never sorted afterwards in the enclosing
// body. body is the function body the loop lives in (for the
// sorted-afterwards check).
func rangeSinkOps(info *types.Info, body ast.Node, rng *ast.RangeStmt, skip func(ast.Node) bool) []DetOp {
	var ops []DetOp
	add := func(pos token.Pos, what string) { ops = append(ops, DetOp{Pos: pos, What: what}) }
	walkHot(rng.Body, skip, func(nd ast.Node) {
		switch n := nd.(type) {
		case *ast.CallExpr:
			if what, ok := sinkCall(info, n); ok {
				add(n.Pos(), what+" inside range over map")
			} else if what, ok := outerWriterCall(info, rng, n); ok {
				add(n.Pos(), what+" inside range over map")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, ok := globalWritten(info, lhs); ok {
					add(lhs.Pos(), "writes package-level "+v.Pkg().Name()+"."+v.Name()+" inside range over map")
					return
				}
			}
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isAppendBuiltin(info, n.Rhs[i]) {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || within(obj.Pos(), rng) {
					continue // loop-local accumulator
				}
				if sortedAfterRange(info, body, rng, obj) {
					continue
				}
				add(n.Pos(), "appends to "+id.Name+" inside range over map without a subsequent sort")
				return
			}
		}
	})
	return ops
}

// outerWriterCall classifies a Write/WriteString/WriteByte/WriteRune
// method call on a concrete receiver variable declared outside the map
// range: streaming into an outer builder or buffer records the
// iteration order. sinkCall already covers interface-typed writers.
func outerWriterCall(info *types.Info, rng *ast.RangeStmt, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if v, ok := info.ObjectOf(id).(*types.Var); ok && !within(v.Pos(), rng) {
			return "writes via " + id.Name + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

func isAppendBuiltin(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func within(pos token.Pos, n ast.Node) bool { return n.Pos() <= pos && pos < n.End() }

// sortedAfterRange reports whether a sort/slices call referencing obj
// follows the range loop inside body — the collect-then-sort idiom that
// makes the accumulation order-independent.
func sortedAfterRange(info *types.Info, body ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	walkHot(body, nil, func(nd ast.Node) {
		if found {
			return
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return
		}
		if path := pn.Imported().Path(); path != "sort" && path != "slices" {
			return
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if aid, ok := a.(*ast.Ident); ok && info.ObjectOf(aid) == obj {
					found = true
					return false
				}
				return true
			})
		}
	})
	return found
}

// callsInside returns the visible call edges of node n whose call
// expression sits lexically inside region.
func callsInside(n *callgraph.Node, region ast.Node, skip func(ast.Node) bool) []callgraph.Edge {
	visible := VisibleCalls(region, skip)
	var out []callgraph.Edge
	for _, e := range n.Edges {
		if visible[e.Call] {
			out = append(out, e)
		}
	}
	return out
}
