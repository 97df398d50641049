package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedFlow enforces the seed-derivation contract in the packages that
// run sweeps: every rng stream construction and every Seed handed to a
// simulation or network build must come from runner.DeriveSeed (or be
// a value threaded in from elsewhere, where the producer is checked in
// turn). Ad-hoc arithmetic like base+uint64(i) reintroduces correlated
// or colliding streams across sweep points — the exact bug the derived
// seed scheme removed.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "in experiment and cmd packages, rng.New arguments and sim.Config Seed " +
		"fields must be derived via runner.DeriveSeed, " +
		"directly or through a wrapper the summaries prove derives its result",
	Run: runSeedFlow,
}

// seedFlowScoped limits the check to the sweep-running packages; leaf
// model packages receive already-derived seeds as plain parameters.
func seedFlowScoped(path string) bool {
	return path == "rsin/internal/experiments" || strings.HasPrefix(path, "rsin/cmd/")
}

// seedStruct is the configuration type whose Seed field feeds a random
// stream. config.BuildOptions also has a Seed, but Build ignores it, so
// there is no stream to guard.
const seedStruct = "rsin/internal/sim.Config"

func isSeedStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path()+"."+obj.Name() == seedStruct
}

func runSeedFlow(p *Pass) error {
	if !seedFlowScoped(p.Path) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(p, node.Fun, rngPackage, "New") && len(node.Args) == 1 {
					checkSeedExpr(p, node.Args[0], "rng.New argument")
				}
			case *ast.CompositeLit:
				if !isSeedStruct(p.Info.TypeOf(node)) {
					return true
				}
				for _, elt := range node.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Seed" {
						checkSeedExpr(p, kv.Value, "Seed field")
					}
				}
			case *ast.AssignStmt:
				if len(node.Lhs) != len(node.Rhs) {
					return true
				}
				for i, lhs := range node.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Seed" {
						continue
					}
					if isSeedStruct(p.Info.TypeOf(sel.X)) {
						checkSeedExpr(p, node.Rhs[i], "Seed assignment")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkSeedExpr accepts: an expression containing a runner.DeriveSeed
// call; a call to a function whose interprocedural summary proves it
// derives its result through DeriveSeed (a deriving wrapper); or a bare
// value reference (identifier, selector, dereference) — a threaded seed
// whose producer is checked where it is constructed. Anything computed
// inline (literals, arithmetic) is flagged, as is a wrapper that
// launders a seed without deriving it.
func checkSeedExpr(p *Pass, e ast.Expr, what string) {
	for {
		if paren, ok := e.(*ast.ParenExpr); ok {
			e = paren.X
			continue
		}
		break
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		return
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(p, call.Fun, "rsin/internal/runner", "DeriveSeed") {
			found = true
			return false
		}
		if p.Uni != nil {
			for _, edge := range p.Uni.Graph.Calls[call] {
				if edge.Callee != nil && p.Uni.Sums.Facts(edge.Callee).DerivesSeed {
					found = true
					return false
				}
			}
		}
		return true
	})
	if !found {
		p.Reportf(e.Pos(),
			"%s is not derived via runner.DeriveSeed: inline seed computation breaks the per-point stream contract",
			what)
	}
}

// isPkgFunc reports whether fun is a selector pkg.Name where pkg is an
// import of pkgPath.
func isPkgFunc(p *Pass, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}
