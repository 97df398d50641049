package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"rsin/internal/lint/callgraph"
	"rsin/internal/lint/summary"
)

// Interprocedural policy shared by the summary layer and the analyzers
// built on it.
var (
	// coldPkgs compile to no-ops in production builds; calls into them
	// (arguments included) are off the steady-state path.
	coldPkgs = map[string]bool{"rsin/internal/invariant": true}

	// uniClockExempt are the only packages allowed to read the wall
	// clock: the runner's execution telemetry and the observability
	// layer's wall-clock half (Stopwatch, Sink timing, pprof hooks).
	// Every other package — models, the event engine, experiments, and
	// the cmd/ binaries — must route elapsed-time reporting through
	// those two, so that model results and exported artifacts (figures,
	// traces, metrics) can never depend on when they ran. noclock
	// reports clock reads outside them, the ReadsClock fact stops at
	// their boundary, and the certifier waives their reads. Test files
	// are not loaded by the linter and may use the clock freely.
	uniClockExempt = map[string]bool{
		"rsin/internal/runner": true,
		"rsin/internal/obs":    true,
	}

	// uniConcExempt packages are sanctioned goroutine/channel users: the
	// runner worker pool writes results into slot-indexed storage and its
	// merge determinism is pinned by byte-identity tests. SpawnsGoroutine
	// and SelectsNondet facts stop at their boundary, and puredet does
	// not report their direct concurrency operations; the certifier
	// records the exemption as a visible waiver instead.
	uniConcExempt = map[string]bool{
		"rsin/internal/runner": true,
	}

	deriveSeedFunc = "rsin/internal/runner.DeriveSeed"
)

// hotRegion is one //lint:hotpath-marked statement: Root is the marked
// statement and Node the enclosing function, whose signature and edges
// scope the scan.
type hotRegion struct {
	Node *callgraph.Node
	Root ast.Node
}

// span is a position range used for //lint:coldpath statement marks.
type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.lo && p <= s.hi }

// unmatchedDirective records a hotpath/coldpath comment that attached
// to nothing; hotalloc reports these so annotations cannot silently rot.
type unmatchedDirective struct {
	pos  token.Pos
	kind string
}

// pkgMarks is the per-package result of directive parsing.
type pkgMarks struct {
	regions   []hotRegion
	coldSpans []span
	unmatched []unmatchedDirective
}

// Universe is the whole-program view behind the interprocedural
// analyzers: every package the loader has type-checked, the call graph
// over them, per-function summaries, and the hotpath/coldpath directive
// marks. One Universe is built per driver invocation and shared by all
// passes.
type Universe struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *callgraph.Graph
	Sums  *summary.Store

	// ModuleRoot and ModulePath come from the loader; certificates use
	// them to render module-relative sites and name the module.
	ModuleRoot string
	ModulePath string

	marks map[string]*pkgMarks // by package path
}

// NewUniverse builds the interprocedural view over everything l has
// loaded. Call it after loading all target packages.
func NewUniverse(l *Loader) *Universe {
	pkgs := l.Loaded()
	srcs := make([]*callgraph.SourcePkg, len(pkgs))
	for i, p := range pkgs {
		srcs[i] = &callgraph.SourcePkg{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
	}
	u := &Universe{
		Fset:       l.Fset,
		Pkgs:       pkgs,
		Graph:      callgraph.Build(l.Fset, srcs),
		ModuleRoot: l.ModuleRoot,
		ModulePath: l.ModulePath,
		marks:      map[string]*pkgMarks{},
	}
	for _, p := range pkgs {
		u.marks[p.Path] = u.applyDirectives(p)
	}
	u.Sums = summary.Compute(l.Fset, u.Graph, summary.Config{
		ColdPkgs:       coldPkgs,
		ClockExempt:    uniClockExempt,
		ConcExempt:     uniConcExempt,
		DeriveSeedFunc: deriveSeedFunc,
	})
	return u
}

// directiveKind extracts the kind of a "//lint:<kind>" directive,
// returning ok=false for ordinary comments.
func directiveKind(c *ast.Comment) (string, bool) {
	rest, ok := strings.CutPrefix(c.Text, "//lint:")
	if !ok {
		return "", false
	}
	kind, _, _ := strings.Cut(rest, " ")
	return kind, true
}

// applyDirectives parses p's //lint:hotpath and //lint:coldpath
// comments, marks call-graph nodes hot, and returns the statement-level
// regions, cold spans and unmatched directives.
//
// Attachment rules:
//   - a hotpath directive in (or immediately above) a function
//     declaration's doc marks the whole function hot;
//   - a directive on the line of — or the line above — a statement
//     marks the outermost statement starting on that line: hotpath
//     makes it a hot region, coldpath excludes it from hotalloc
//     findings in an enclosing hot scope;
//   - a hotpath region consisting of `name := func(...) {...}` marks
//     the bound closure's call-graph node hot instead (closure bodies
//     are separate nodes, reached through call edges);
//   - anything else is unmatched and reported by hotalloc.
func (u *Universe) applyDirectives(p *Package) *pkgMarks {
	m := &pkgMarks{}
	for _, file := range p.Files {
		// Outermost statement per start line.
		stmtAt := map[int]ast.Stmt{}
		ast.Inspect(file, func(nd ast.Node) bool {
			st, ok := nd.(ast.Stmt)
			if !ok {
				return true
			}
			line := u.Fset.Position(st.Pos()).Line
			if prev, ok := stmtAt[line]; !ok || st.Pos() < prev.Pos() {
				stmtAt[line] = st
			}
			return true
		})
		// Function declarations by doc-comment ownership and start line.
		declForDoc := map[*ast.CommentGroup]*ast.FuncDecl{}
		declAtLine := map[int]*ast.FuncDecl{}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Doc != nil {
				declForDoc[fd.Doc] = fd
			}
			declAtLine[u.Fset.Position(fd.Pos()).Line] = fd
		}

		for _, cg := range file.Comments {
			for _, c := range cg.List {
				kind, ok := directiveKind(c)
				if !ok || (kind != "hotpath" && kind != "coldpath") {
					continue
				}
				line := u.Fset.Position(c.Pos()).Line
				if kind == "hotpath" {
					if fd := declForDoc[cg]; fd != nil {
						u.markDecl(fd)
						continue
					}
					if fd := declAtLine[line+1]; fd != nil {
						u.markDecl(fd)
						continue
					}
				}
				// Trailing comment: the statement starts earlier on the
				// same line. Own-line comment: it governs the next line.
				st := stmtAt[line]
				if st == nil {
					st = stmtAt[line+1]
				}
				if st == nil {
					m.unmatched = append(m.unmatched, unmatchedDirective{pos: c.Pos(), kind: kind})
					continue
				}
				if kind == "coldpath" {
					m.coldSpans = append(m.coldSpans, span{lo: st.Pos(), hi: st.End()})
					continue
				}
				if lit := boundClosure(st); lit != nil {
					if n := u.Graph.ByLit[lit]; n != nil {
						n.Hot = true
						continue
					}
				}
				node := u.enclosingNode(p, st)
				if node == nil {
					m.unmatched = append(m.unmatched, unmatchedDirective{pos: c.Pos(), kind: kind})
					continue
				}
				m.regions = append(m.regions, hotRegion{Node: node, Root: st})
			}
		}
	}
	return m
}

// markDecl marks a declared function's node hot.
func (u *Universe) markDecl(fd *ast.FuncDecl) {
	if n := u.Graph.ByDecl[fd]; n != nil {
		n.Hot = true
	}
}

// boundClosure recognizes `name := func(...) {...}` (single assign of a
// lone function literal) and returns the literal.
func boundClosure(st ast.Stmt) *ast.FuncLit {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lit, _ := as.Rhs[0].(*ast.FuncLit)
	return lit
}

// enclosingNode finds the innermost call-graph node of p whose body
// contains st.
func (u *Universe) enclosingNode(p *Package, st ast.Stmt) *callgraph.Node {
	var best *callgraph.Node
	for _, n := range u.Graph.Nodes {
		if n.Pkg == nil || n.Pkg.Path != p.Path {
			continue
		}
		body := n.Body()
		if body == nil || st.Pos() < body.Pos() || st.End() > body.End() {
			continue
		}
		if best == nil || body.Pos() > best.Body().Pos() {
			best = n
		}
	}
	return best
}
