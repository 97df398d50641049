package lint

import (
	"go/ast"
	"go/types"

	"rsin/internal/lint/callgraph"
	"rsin/internal/lint/summary"
)

// NoClock reports wall-clock reads outside the exempt telemetry
// packages, both direct references to time.Now & friends and — via the
// interprocedural summaries — calls into other-module-package functions
// that transitively reach the clock, with the full call chain. A model
// whose numbers depend on when it ran is not reproducible; simulated
// time lives in event timestamps, and wall time belongs to
// runner.Telemetry and obs.Stopwatch.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc: "forbid wall-clock reads (time.Now, time.Since, …) outside internal/runner " +
		"and internal/obs, directly or transitively through calls; route elapsed-time " +
		"reporting through the telemetry layer",
	Run: runNoClock,
}

func runNoClock(p *Pass) error {
	if uniClockExempt[p.Path] {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if summary.IsClockFunc(sel.Sel.Name) {
				p.Reportf(sel.Pos(),
					"wall-clock time.%s in %s: only internal/runner and internal/obs may read the wall clock (use obs.Stopwatch or runner.Telemetry)",
					sel.Sel.Name, p.Path)
			}
			return true
		})
	}
	// Interprocedural half: calls into functions of *other* module
	// packages whose summaries reach the clock. Same-package reaches are
	// already reported at the referencing line above; exempt callees
	// absorb clock taint by design.
	if p.Uni == nil {
		return nil
	}
	for _, n := range p.Uni.Graph.Nodes {
		if n.Pkg == nil || n.Pkg.Path != p.Path {
			continue
		}
		for _, e := range n.Edges {
			if e.Kind == callgraph.EdgeExternal || e.Kind == callgraph.EdgeDynamic || e.Callee == nil {
				continue
			}
			cp := e.Callee.Pkg
			if cp == nil || cp.Path == p.Path || uniClockExempt[cp.Path] {
				continue
			}
			f := p.Uni.Sums.Facts(e.Callee)
			if f.ReadsClock {
				p.Reportf(e.Call.Pos(), "call reaches the wall clock: %s",
					p.Uni.Sums.DescribeChain(e.Callee, f.ClockPath))
			}
		}
	}
	return nil
}
