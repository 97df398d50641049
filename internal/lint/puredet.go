package lint

import (
	"go/ast"
	"go/token"

	"rsin/internal/lint/summary"
)

// PureDet reports determinism hazards: writes to package-level mutable
// state (shards would race or diverge on it), goroutine launches and
// scheduler-dependent channel operations outside the sanctioned runner
// pool, and Go's randomized map iteration order escaping a range loop
// into an output, package-level state, or an accumulated slice that is
// not sorted afterwards — either directly in the loop body or through
// a call chain.
//
// Package initialization (func init bodies) is exempt from the state
// and concurrency checks: it runs once, in source order, before any
// shard exists. It is not exempt from the map-order check, because
// iteration order still changes from one process to the next. The
// runner package is exempt from the concurrency checks (its
// slot-indexed merge is pinned deterministic by byte-identity tests).
//
// The -certify mode of cmd/rsinlint builds on the same facts to prove
// entire call closures clean; see Certify.
var PureDet = &Analyzer{
	Name: "puredet",
	Doc: "puredet reports determinism hazards: package-level state writes, " +
		"unsanctioned goroutines and channel operations, and map iteration order " +
		"reaching an output, package-level state or an unsorted slice, directly or " +
		"through a call chain; cmd/rsinlint -certify builds whole-closure " +
		"determinism certificates on the same facts",
	Run: runPureDet,
}

func runPureDet(p *Pass) error {
	skip := summary.ColdSkipper(p.Info, coldPkgs)
	inits := initSpans(p.Files)
	inInit := func(pos token.Pos) bool {
		for _, s := range inits {
			if s.contains(pos) {
				return true
			}
		}
		return false
	}
	report := func(ops []summary.DetOp, format string) {
		for _, op := range ops {
			if !inInit(op.Pos) {
				p.Reportf(op.Pos, format, op.What)
			}
		}
	}
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			for _, op := range summary.MapOrderOps(p.Info, fn.body, skip) {
				p.Reportf(op.Pos, "map iteration order leaks: %s", op.What)
			}
			report(summary.GlobalWriteOps(p.Info, fn.body, skip), "%s: package-level state is shared across shards")
			if !uniConcExempt[p.Path] {
				report(summary.SpawnOps(fn.body, skip), "%s outside the sanctioned runner pool")
				report(summary.SelectOps(p.Info, fn.body, skip), "%s")
			}
		}
	}
	// Interprocedural map-order leak: the map range is here, the sink is
	// in a callee. Direct leaks were reported above, and a chain
	// inherited through a plain call is reported where its range is.
	if p.Uni == nil {
		return nil
	}
	for _, n := range p.Uni.Graph.Nodes {
		if n.Pkg == nil || n.Pkg.Path != p.Path {
			continue
		}
		f := p.Uni.Sums.Facts(n)
		if path := f.MapOrderPath; f.RangesMapToSink && groundedHere("RangesMapToSink", path) && path[0].Callee != nil {
			p.Reportf(path[0].Pos, "map iteration order escapes through call: %s",
				p.Uni.Sums.DescribeChain(n, path))
		}
	}
	return nil
}

// initSpans returns the source extents of the files' init functions;
// state and concurrency operations inside them are exempt from puredet
// (initialization runs once, in source order, before any shard exists).
func initSpans(files []*ast.File) []span {
	var out []span
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
				out = append(out, span{lo: fd.Pos(), hi: fd.End()})
			}
		}
	}
	return out
}
