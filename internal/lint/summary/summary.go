// Package summary computes per-function fact summaries bottom-up over
// the call graph's strongly connected components. A summary answers, in
// O(1) at any call site, questions that are otherwise transitive: "can
// this callee reach a heap allocation?", "does it read the wall
// clock?", "does it draw from a global random source?", "does it
// derive its result through runner.DeriveSeed?".
//
// Facts are monotone (they only flip from false to true), so a simple
// iterate-to-fixpoint within each SCC terminates: each pass either
// flips at least one fact or the component is stable, and there are
// finitely many facts. Components are processed callees-first, so every
// cross-component callee is final when its callers are summarized.
//
// Every positive fact carries a witness chain — the call path from the
// function to the operation that grounds the fact — so analyzers can
// report "hot path → f → g → append at file:line" instead of a bare
// verdict. Witness chains are copied from already-final facts, so they
// are acyclic even through recursive components.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"rsin/internal/lint/callgraph"
)

// Step is one link of a witness chain: either a call into Callee or,
// on the last step, the grounding operation itself.
type Step struct {
	Pos    token.Pos
	What   string          // "growing append", "calls time.Now", …
	Callee *callgraph.Node // nil on the terminal operation step
}

// Facts is one function's summary.
type Facts struct {
	// Allocates: the function may perform a heap allocation (directly
	// or transitively), judged by the conservative operation taxonomy
	// of Ops. Amortized-growth sites count — the static story is
	// "may allocate", the runtime AllocsPerRun tests own "how often".
	Allocates bool
	AllocPath []Step

	// ReadsClock: the function reaches a wall-clock primitive
	// (time.Now & friends) without passing through an exempt package.
	ReadsClock bool
	ClockPath  []Step

	// GlobalRand: the function reaches math/rand's global source.
	GlobalRand bool
	RandPath   []Step

	// DerivesSeed: the function has exactly one uint64 result and every
	// return derives it through runner.DeriveSeed (directly or via
	// another deriving function). Identity passthroughs do not qualify.
	DerivesSeed bool

	// WritesGlobal: the function may write package-level mutable state
	// (assignment, compound assignment, ++/--, map write or delete,
	// append landing back in a global), directly or transitively.
	WritesGlobal bool
	GlobalPath   []Step

	// EmitsOutput: the function may externalize data (fmt printing, io
	// writes, interface-writer methods), directly or transitively. Not a
	// violation by itself — it is the sink predicate RangesMapToSink
	// composes with.
	EmitsOutput bool
	OutputPath  []Step

	// RangesMapToSink: the function contains a range-over-map whose
	// randomized iteration order can reach a sink — an output operation,
	// package-level state, or a callee that emits output or writes
	// globals — or calls a function that does.
	RangesMapToSink bool
	MapOrderPath    []Step

	// SpawnsGoroutine: the function may launch a goroutine. The fact
	// does not propagate out of ConcExempt packages (the runner worker
	// pool's determinism is pinned by byte-identity tests).
	SpawnsGoroutine bool
	GoPath          []Step

	// SelectsNondet: the function may execute a scheduler-dependent
	// channel operation: a multi-ready select, a select with a default
	// clause, or an unsynchronized channel receive. ConcExempt packages
	// bound propagation as for SpawnsGoroutine.
	SelectsNondet bool
	SelectPath    []Step
}

// Config parameterizes fact computation with the lint policy the
// summaries serve.
type Config struct {
	// ColdPkgs are packages whose calls (including argument
	// evaluation) are excluded from allocation facts: the invariant
	// package compiles to no-ops unless the invariant build tag is on.
	ColdPkgs map[string]bool
	// ClockExempt are packages sanctioned to read the wall clock;
	// ReadsClock does not propagate out of them.
	ClockExempt map[string]bool
	// DeriveSeedFunc is the full name of the canonical seed-derivation
	// function ("rsin/internal/runner.DeriveSeed").
	DeriveSeedFunc string
	// ConcExempt are packages sanctioned to use goroutines and channel
	// operations (the runner worker pool, whose slot-indexed merge is
	// proven deterministic by byte-identity tests); SpawnsGoroutine and
	// SelectsNondet do not propagate out of them.
	ConcExempt map[string]bool
}

// Store holds the computed facts for every node of a graph.
type Store struct {
	fset  *token.FileSet
	graph *callgraph.Graph
	cfg   Config
	facts map[*callgraph.Node]*Facts
}

// Facts returns n's summary (never nil for a node of the store's graph).
func (s *Store) Facts(n *callgraph.Node) *Facts {
	if f := s.facts[n]; f != nil {
		return f
	}
	return &Facts{}
}

// maxChain caps witness chains for message sanity.
const maxChain = 10

// Compute summarizes every node of g bottom-up over its SCCs.
func Compute(fset *token.FileSet, g *callgraph.Graph, cfg Config) *Store {
	s := &Store{fset: fset, graph: g, cfg: cfg, facts: map[*callgraph.Node]*Facts{}}
	for _, n := range g.Nodes {
		s.facts[n] = &Facts{}
	}
	for _, comp := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if s.update(n) {
					changed = true
				}
			}
		}
	}
	return s
}

// update recomputes n's facts from its body and current callee facts,
// reporting whether anything flipped.
func (s *Store) update(n *callgraph.Node) bool {
	f := s.facts[n]
	changed := false
	body := n.Body()
	if body == nil {
		return false
	}
	info := n.Pkg.Info
	skip := ColdSkipper(info, s.cfg.ColdPkgs)

	// Direct operations.
	if !f.Allocates {
		ops := AllocOps(info, n, skip)
		if len(ops) > 0 {
			f.Allocates = true
			f.AllocPath = []Step{{Pos: ops[0].Pos, What: ops[0].What}}
			changed = true
		}
	}
	if !f.ReadsClock {
		if pos, what, ok := s.clockUse(n, skip); ok {
			f.ReadsClock = true
			f.ClockPath = []Step{{Pos: pos, What: what}}
			changed = true
		}
	}
	if !f.WritesGlobal {
		if ops := GlobalWriteOps(info, body, skip); len(ops) > 0 {
			f.WritesGlobal = true
			f.GlobalPath = []Step{{Pos: ops[0].Pos, What: ops[0].What}}
			changed = true
		}
	}
	if !f.EmitsOutput {
		if ops := SinkOps(info, body, skip); len(ops) > 0 {
			f.EmitsOutput = true
			f.OutputPath = []Step{{Pos: ops[0].Pos, What: ops[0].What}}
			changed = true
		}
	}
	if !f.SpawnsGoroutine {
		if ops := SpawnOps(body, skip); len(ops) > 0 {
			f.SpawnsGoroutine = true
			f.GoPath = []Step{{Pos: ops[0].Pos, What: ops[0].What}}
			changed = true
		}
	}
	if !f.SelectsNondet {
		if ops := SelectOps(info, body, skip); len(ops) > 0 {
			f.SelectsNondet = true
			f.SelectPath = []Step{{Pos: ops[0].Pos, What: ops[0].What}}
			changed = true
		}
	}
	// RangesMapToSink folds both intraprocedural leaks (direct sink in
	// the loop body) and interprocedural ones (a call from inside the
	// loop body to a callee whose EmitsOutput/WritesGlobal fact is set),
	// so it must be re-checked each fixed-point pass as callee facts
	// evolve.
	if !f.RangesMapToSink {
		if steps, ok := s.mapRangeSink(n, skip); ok {
			f.RangesMapToSink = true
			f.MapOrderPath = steps
			changed = true
		}
	}

	// Propagation through edges. Edges whose call sites sit inside cold
	// subtrees (invariant guards, panic branches) carry no facts.
	visible := VisibleCalls(body, skip)
	for _, e := range n.Edges {
		if !visible[e.Call] {
			continue
		}
		switch e.Kind {
		case callgraph.EdgeExternal:
			changed = s.applyExternal(f, e) || changed
		case callgraph.EdgeDynamic:
			if !f.Allocates {
				f.Allocates = true
				f.AllocPath = []Step{{Pos: e.Call.Pos(), What: "indirect call (cannot be proven allocation-free)"}}
				changed = true
			}
		default:
			cf := s.facts[e.Callee]
			if cf.Allocates && !f.Allocates {
				f.Allocates = true
				f.AllocPath = chain(e, cf.AllocPath)
				changed = true
			}
			if cf.ReadsClock && !f.ReadsClock && !s.cfg.ClockExempt[e.Callee.Pkg.Path] {
				f.ReadsClock = true
				f.ClockPath = chain(e, cf.ClockPath)
				changed = true
			}
			if cf.GlobalRand && !f.GlobalRand {
				f.GlobalRand = true
				f.RandPath = chain(e, cf.RandPath)
				changed = true
			}
			if cf.WritesGlobal && !f.WritesGlobal {
				f.WritesGlobal = true
				f.GlobalPath = chain(e, cf.GlobalPath)
				changed = true
			}
			if cf.EmitsOutput && !f.EmitsOutput {
				f.EmitsOutput = true
				f.OutputPath = chain(e, cf.OutputPath)
				changed = true
			}
			if cf.RangesMapToSink && !f.RangesMapToSink {
				f.RangesMapToSink = true
				f.MapOrderPath = chain(e, cf.MapOrderPath)
				changed = true
			}
			if cf.SpawnsGoroutine && !f.SpawnsGoroutine && !s.cfg.ConcExempt[e.Callee.Pkg.Path] {
				f.SpawnsGoroutine = true
				f.GoPath = chain(e, cf.GoPath)
				changed = true
			}
			if cf.SelectsNondet && !f.SelectsNondet && !s.cfg.ConcExempt[e.Callee.Pkg.Path] {
				f.SelectsNondet = true
				f.SelectPath = chain(e, cf.SelectPath)
				changed = true
			}
		}
	}

	// Seed derivation.
	if !f.DerivesSeed && s.derivesSeed(n) {
		f.DerivesSeed = true
		changed = true
	}
	return changed
}

func chain(e callgraph.Edge, tail []Step) []Step {
	head := Step{Pos: e.Call.Pos(), What: "calls", Callee: e.Callee}
	out := append([]Step{head}, tail...)
	if len(out) > maxChain {
		out = out[:maxChain]
	}
	return out
}

// allowlistExternal are stdlib packages whose functions are known not
// to allocate (pure arithmetic).
var allowlistExternal = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"unicode/utf8": true,
}

// AllowlistedExternal reports whether path is a standard-library
// package whose functions are known not to allocate.
func AllowlistedExternal(path string) bool { return allowlistExternal[path] }

// clockFuncs are the wall-clock primitives of package time.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// IsClockFunc reports whether time.name is a wall-clock primitive: a
// reference to it makes a result depend on when it ran.
func IsClockFunc(name string) bool { return clockFuncs[name] }

func (s *Store) applyExternal(f *Facts, e callgraph.Edge) bool {
	pkg := e.Ext.Pkg()
	if pkg == nil { // error.Error, universe funcs
		return false
	}
	path := pkg.Path()
	changed := false
	if path == "time" && clockFuncs[e.Ext.Name()] && !f.ReadsClock {
		f.ReadsClock = true
		f.ClockPath = []Step{{Pos: e.Call.Pos(), What: "calls time." + e.Ext.Name()}}
		changed = true
	}
	if (path == "math/rand" || path == "math/rand/v2") && !f.GlobalRand {
		f.GlobalRand = true
		f.RandPath = []Step{{Pos: e.Call.Pos(), What: "calls " + path + "." + e.Ext.Name()}}
		changed = true
	}
	if !allowlistExternal[path] && !s.cfg.ColdPkgs[path] && !f.Allocates {
		f.Allocates = true
		f.AllocPath = []Step{{Pos: e.Call.Pos(),
			What: fmt.Sprintf("calls %s.%s (external, assumed allocating)", pkgShort(path), e.Ext.Name())}}
		changed = true
	}
	return changed
}

func pkgShort(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// mapRangeSink looks for a range-over-map in n's body whose iteration
// order can reach a sink: a direct leak (the first of MapOrderOps), or
// else a call from inside a loop body to a callee whose EmitsOutput or
// WritesGlobal fact is (currently) set. The returned witness chain
// starts at the grounding operation or at the offending call edge.
func (s *Store) mapRangeSink(n *callgraph.Node, skip func(ast.Node) bool) ([]Step, bool) {
	body := n.Body()
	info := n.Pkg.Info
	if ops := MapOrderOps(info, body, skip); len(ops) > 0 {
		return []Step{{Pos: ops[0].Pos, What: ops[0].What}}, true
	}
	for _, rng := range mapRanges(info, body, skip) {
		for _, e := range callsInside(n, rng.Body, skip) {
			if e.Callee == nil {
				continue
			}
			cf := s.facts[e.Callee]
			if cf == nil {
				continue
			}
			head := Step{Pos: e.Call.Pos(), What: StepRangeCall, Callee: e.Callee}
			var tail []Step
			switch {
			case cf.EmitsOutput:
				tail = cf.OutputPath
			case cf.WritesGlobal:
				tail = cf.GlobalPath
			default:
				continue
			}
			out := append([]Step{head}, tail...)
			if len(out) > maxChain {
				out = out[:maxChain]
			}
			return out, true
		}
	}
	return nil, false
}

// clockUse finds a lexical reference to a wall-clock primitive in n's
// body (a reference, not just a call: storing time.Now in a variable is
// as much a clock dependency as calling it).
func (s *Store) clockUse(n *callgraph.Node, skip func(ast.Node) bool) (token.Pos, string, bool) {
	var pos token.Pos
	var what string
	found := false
	walkHot(n.Body(), skip, func(nd ast.Node) {
		if found {
			return
		}
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok {
			return
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		pn, ok := n.Pkg.Info.Uses[id].(*types.PkgName)
		if ok && pn.Imported().Path() == "time" && clockFuncs[sel.Sel.Name] {
			pos, what, found = sel.Pos(), "references time."+sel.Sel.Name, true
		}
	})
	return pos, what, found
}

// derivesSeed implements the DerivesSeed predicate for declared
// functions with one uint64 result.
func (s *Store) derivesSeed(n *callgraph.Node) bool {
	if n.Decl == nil || s.cfg.DeriveSeedFunc == "" {
		return false
	}
	sig := n.Signature(n.Pkg.Info)
	if sig == nil || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Uint64 {
		return false
	}
	derives := func(expr ast.Expr) bool {
		ok := false
		ast.Inspect(expr, func(nd ast.Node) bool {
			call, isCall := nd.(*ast.CallExpr)
			if !isCall {
				return true
			}
			for _, e := range s.graph.Calls[call] {
				if e.Kind == callgraph.EdgeExternal {
					continue
				}
				if e.Callee == nil {
					continue
				}
				if e.Callee.Func != nil && funcFullName(e.Callee.Func) == s.cfg.DeriveSeedFunc {
					ok = true
					return false
				}
				if s.facts[e.Callee].DerivesSeed {
					ok = true
					return false
				}
			}
			return true
		})
		return ok
	}
	returns := 0
	allDerive := true
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if _, isLit := nd.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := nd.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		returns++
		if len(ret.Results) != 1 || !derives(ret.Results[0]) {
			allDerive = false
		}
		return true
	})
	return returns > 0 && allDerive
}

func funcFullName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// DescribeChain renders a witness chain for diagnostics:
// "f → g → growing append at file.go:12". start names the chain's
// first callee (usually the callee of the reported call site).
func (s *Store) DescribeChain(start *callgraph.Node, steps []Step) string {
	var b strings.Builder
	b.WriteString(start.Name)
	for _, st := range steps {
		b.WriteString(" → ")
		if st.Callee != nil {
			b.WriteString(st.Callee.Name)
		} else {
			pos := s.fset.Position(st.Pos)
			fmt.Fprintf(&b, "%s at %s:%d", st.What, filepath.Base(pos.Filename), pos.Line)
		}
	}
	return b.String()
}
