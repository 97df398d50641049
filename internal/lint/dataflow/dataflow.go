// Package dataflow computes classic forward dataflow facts — reaching
// definitions and use-def chains — over the control-flow graphs of
// package cfg, using only the standard library. It powers the lint
// analyzers that need path sensitivity: "is this error value read on
// every path", "which definition does this use see".
//
// The analysis is per-function and tracks only variables declared
// inside the analyzed function (parameters, receivers, named results,
// and locals). Mentions inside nested function literals are treated
// conservatively as uses (never kills): a closure may run at any time,
// so a value it references can never be proven dead.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"rsin/internal/lint/cfg"
)

// Def is one definition (binding or assignment) of a tracked variable.
type Def struct {
	Var   *types.Var
	Node  ast.Node   // defining node: AssignStmt, ValueSpec, IncDecStmt, RangeHead, or param *ast.Ident
	Block *cfg.Block // block containing the definition (Entry for parameters)
	Index int        // index in Block.Stmts; -1 for parameter/receiver/result bindings
	// HasInit reports whether the definition assigns a computed value
	// (false for `var x T` zero-value declarations and parameters).
	HasInit bool
	// IsUpdate reports whether the defining statement also reads the
	// previous value (x += e, x++).
	IsUpdate bool
}

// Info holds the dataflow facts of one function.
type Info struct {
	Fn    ast.Node // *ast.FuncDecl or *ast.FuncLit
	G     *cfg.Graph
	TInfo *types.Info

	Defs []*Def

	defsOfVar    map[*types.Var][]int // indices into Defs
	nodeDefs     map[ast.Node][]*Def  // defs keyed by their Block.Stmts node
	namedResults map[*types.Var]bool
	in           map[*cfg.Block][]bool // reaching defs at block entry
}

// Analyze computes reaching definitions for fn (a *ast.FuncDecl or
// *ast.FuncLit) over its graph g.
func Analyze(fn ast.Node, g *cfg.Graph, tinfo *types.Info) *Info {
	info := &Info{
		Fn:           fn,
		G:            g,
		TInfo:        tinfo,
		defsOfVar:    map[*types.Var][]int{},
		nodeDefs:     map[ast.Node][]*Def{},
		namedResults: map[*types.Var]bool{},
	}
	info.collectDefs()
	info.solve()
	return info
}

// fnType returns the declared signature parts of the analyzed function.
func (in *Info) fnParts() (recv *ast.FieldList, typ *ast.FuncType) {
	switch f := in.Fn.(type) {
	case *ast.FuncDecl:
		return f.Recv, f.Type
	case *ast.FuncLit:
		return nil, f.Type
	}
	return nil, nil
}

// local reports whether v is declared inside the analyzed function.
func (in *Info) local(v *types.Var) bool {
	return v != nil && in.Fn.Pos() <= v.Pos() && v.Pos() < in.Fn.End()
}

// VarOf resolves an identifier to the tracked local variable it
// denotes, or nil.
func (in *Info) VarOf(id *ast.Ident) *types.Var {
	v, ok := in.TInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || !in.local(v) {
		return nil
	}
	return v
}

func (in *Info) addDef(d *Def) {
	if d.Var == nil {
		return
	}
	in.defsOfVar[d.Var] = append(in.defsOfVar[d.Var], len(in.Defs))
	if d.Index >= 0 {
		in.nodeDefs[d.Node] = append(in.nodeDefs[d.Node], d)
	}
	in.Defs = append(in.Defs, d)
}

func (in *Info) collectDefs() {
	recv, typ := in.fnParts()
	bind := func(fl *ast.FieldList, result bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				v := in.VarOf(name)
				if v == nil {
					continue
				}
				in.addDef(&Def{Var: v, Node: name, Block: in.G.Entry, Index: -1})
				if result {
					in.namedResults[v] = true
				}
			}
		}
	}
	bind(recv, false)
	if typ != nil {
		bind(typ.Params, false)
		bind(typ.Results, true)
	}
	for _, blk := range in.G.Blocks {
		for i, node := range blk.Stmts {
			for _, d := range defsIn(node) {
				v := in.VarOf(d.id)
				if v == nil {
					continue
				}
				in.addDef(&Def{Var: v, Node: node, Block: blk, Index: i,
					HasInit: d.hasInit, IsUpdate: d.isUpdate})
			}
		}
	}
}

type rawDef struct {
	id       *ast.Ident
	hasInit  bool
	isUpdate bool
}

// defsIn lists the variables a single block-level node (re)defines. It
// looks only at the node's own assignment structure, never inside
// nested expressions or function literals.
func defsIn(node ast.Node) []rawDef {
	var out []rawDef
	switch s := node.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					out = append(out, rawDef{id: id, hasInit: true})
				}
			}
		} else { // op-assign: x += e reads then writes
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				out = append(out, rawDef{id: id, hasInit: true, isUpdate: true})
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			out = append(out, rawDef{id: id, hasInit: true, isUpdate: true})
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.Name != "_" {
					out = append(out, rawDef{id: name, hasInit: len(vs.Values) > 0})
				}
			}
		}
	case *cfg.RangeHead:
		for _, e := range []ast.Expr{s.Range.Key, s.Range.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				out = append(out, rawDef{id: id, hasInit: true})
			}
		}
	}
	return out
}

// solve runs the standard reaching-definitions fixpoint.
func (in *Info) solve() {
	n := len(in.Defs)
	gen := map[*cfg.Block][]bool{}
	kill := map[*cfg.Block][]bool{}
	for _, blk := range in.G.Blocks {
		g := make([]bool, n)
		k := make([]bool, n)
		apply := func(d *Def, idx int) {
			for _, other := range in.defsOfVar[d.Var] {
				g[other] = false
				k[other] = true
			}
			g[idx] = true
			k[idx] = false
		}
		if blk == in.G.Entry {
			for idx, d := range in.Defs {
				if d.Index == -1 {
					apply(d, idx)
				}
			}
		}
		for _, node := range blk.Stmts {
			for _, d := range in.nodeDefs[node] {
				apply(d, in.defIndex(d))
			}
		}
		gen[blk] = g
		kill[blk] = k
	}
	in.in = map[*cfg.Block][]bool{}
	out := map[*cfg.Block][]bool{}
	for _, blk := range in.G.Blocks {
		in.in[blk] = make([]bool, n)
		out[blk] = make([]bool, n)
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range in.G.Blocks {
			inB := in.in[blk]
			for i := range inB {
				inB[i] = false
			}
			for _, p := range blk.Preds {
				for i, v := range out[p] {
					if v {
						inB[i] = true
					}
				}
			}
			for i := 0; i < n; i++ {
				nv := gen[blk][i] || (inB[i] && !kill[blk][i])
				if nv != out[blk][i] {
					out[blk][i] = nv
					changed = true
				}
			}
		}
	}
}

func (in *Info) defIndex(d *Def) int {
	for _, i := range in.defsOfVar[d.Var] {
		if in.Defs[i] == d {
			return i
		}
	}
	return -1
}

// ReachingAt returns the definitions of v that reach the program point
// just before Block.Stmts[idx] of blk (idx == len(Stmts) means the
// block's end).
func (in *Info) ReachingAt(blk *cfg.Block, idx int, v *types.Var) []*Def {
	cur := append([]bool(nil), in.in[blk]...)
	if blk == in.G.Entry {
		for i, d := range in.Defs {
			if d.Index == -1 {
				cur[i] = true
			}
		}
	}
	for i := 0; i < idx && i < len(blk.Stmts); i++ {
		for _, d := range in.nodeDefs[blk.Stmts[i]] {
			for _, other := range in.defsOfVar[d.Var] {
				cur[other] = false
			}
			cur[in.defIndex(d)] = true
		}
	}
	var out []*Def
	for i, on := range cur {
		if on && in.Defs[i].Var == v {
			out = append(out, in.Defs[i])
		}
	}
	return out
}

// UseDefs returns the definitions reaching the given identifier use —
// the use-def chain. It returns nil when the identifier does not
// denote a tracked local variable or cannot be located in the graph.
func (in *Info) UseDefs(id *ast.Ident) []*Def {
	v := in.VarOf(id)
	if v == nil {
		return nil
	}
	blk, idx := in.G.FindNode(id.Pos())
	if blk == nil {
		return nil
	}
	return in.ReachingAt(blk, idx, v)
}

// DeadKind classifies how a definition can die unread.
type DeadKind int

const (
	// DeadNone: every path from the definition reads the value before
	// the function exits or the variable is reassigned.
	DeadNone DeadKind = iota
	// DeadAtExit: some path reaches the function exit without reading
	// the value.
	DeadAtExit
	// DeadOverwritten: some path reassigns the variable without reading
	// the value first.
	DeadOverwritten
)

// DeadPath reports whether some path from definition d reaches the
// function exit, or a redefinition of d.Var, without d.Var being read.
// The returned position is where the path dies (the overwrite, or the
// end of the function).
func (in *Info) DeadPath(d *Def) (DeadKind, token.Pos) {
	v := d.Var
	visited := map[*cfg.Block]bool{}
	var walk func(blk *cfg.Block, start int) (DeadKind, token.Pos)
	walk = func(blk *cfg.Block, start int) (DeadKind, token.Pos) {
		for i := start; i < len(blk.Stmts); i++ {
			node := blk.Stmts[i]
			if in.readsVar(node, v) {
				return DeadNone, token.NoPos
			}
			for _, nd := range in.nodeDefs[node] {
				if nd.Var == v && !nd.IsUpdate {
					return DeadOverwritten, node.Pos()
				}
			}
		}
		if blk == in.G.Exit {
			return DeadAtExit, in.Fn.End()
		}
		for _, s := range blk.Succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if kind, pos := walk(s, 0); kind != DeadNone {
				return kind, pos
			}
		}
		return DeadNone, token.NoPos
	}
	return walk(d.Block, d.Index+1)
}

// readsVar reports whether node reads v: any mention that is not a
// plain assignment target. Mentions inside nested function literals
// count as reads (the closure may observe the value at any time), and
// a bare return reads every named result.
func (in *Info) readsVar(node ast.Node, v *types.Var) bool {
	if ret, ok := node.(*ast.ReturnStmt); ok && len(ret.Results) == 0 && in.namedResults[v] {
		return true
	}
	writeOnly := map[*ast.Ident]bool{}
	switch s := node.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					writeOnly[id] = true
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						writeOnly[name] = true
					}
				}
			}
		}
	case *cfg.RangeHead:
		// The head reads X and writes Key/Value.
		found := false
		ast.Inspect(s.Range.X, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && in.TInfo.ObjectOf(id) == v {
				found = true
			}
			return !found
		})
		return found
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && in.TInfo.ObjectOf(id) == v && !writeOnly[id] {
			found = true
			return false
		}
		return true
	})
	return found
}
