package lint

// All returns the project's analyzers in their canonical order: the
// determinism suite first (AST-only), then the dataflow-powered suite
// built on the cfg and dataflow packages, then the interprocedural
// suite built on the callgraph and summary packages.
func All() []*Analyzer {
	return []*Analyzer{
		NoRand, NoClock, SeedFlow,
		FloatSafe, ErrFlow, ProbRange,
		HotAlloc, PureDet,
	}
}
