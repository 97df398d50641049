// Package cfg builds per-function control-flow graphs over go/ast
// function bodies, using only the standard library. It is the
// foundation of the lint package's path-sensitive analyzers: blocks
// hold statements and condition expressions in execution order,
// short-circuit operators (&&, ||) are lowered into separate condition
// blocks so guards compose, and a dominator tree answers "does this
// guard run on every path to that statement".
//
// The graph is intentionally statement-granular rather than
// instruction-granular: within a block, execution is straight-line, so
// analyzers scan Block.Stmts in order; across blocks they follow Succs
// or the dominator tree. Function literals nested inside statements
// are NOT expanded — each FuncLit body is a function of its own and
// gets its own graph.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of statements. Stmts holds ast.Stmt
// and bare ast.Expr nodes (lowered conditions) plus *RangeHead markers,
// in execution order. A block with two successors ends in a condition:
// Succs[0] is the true edge, Succs[1] the false edge.
type Block struct {
	Index int
	Stmts []ast.Node
	Succs []*Block
	Preds []*Block
}

// RangeHead marks the per-iteration head of a range loop: the read of
// the ranged expression and the (re)definition of the key and value
// variables. It stands in for the RangeStmt in the loop-head block so
// the loop body's statements are not duplicated under it.
type RangeHead struct {
	Range *ast.RangeStmt
}

// Pos implements ast.Node.
func (r *RangeHead) Pos() token.Pos { return r.Range.For }

// End implements ast.Node. The range covers only the head (up to the
// ranged expression), never the loop body.
func (r *RangeHead) End() token.Pos { return r.Range.X.End() }

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry, Exit *Block
	Blocks      []*Block
}

// Options configure graph construction.
type Options struct {
	// NoReturn reports whether a call never returns (os.Exit,
	// log.Fatal, ...). Such calls edge straight to Exit. The builtin
	// panic is always treated as no-return; the callback may be nil.
	NoReturn func(*ast.CallExpr) bool
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label      string
	isLoop     bool
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	g            *Graph
	opt          Options
	cur          *Block
	frames       []frame
	labelBlocks  map[string]*Block
	pendingLabel string
	fallTarget   *Block // fallthrough destination inside a switch case
	defers       []ast.Node
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt, opt Options) *Graph {
	g := &Graph{}
	b := &builder{g: g, opt: opt, labelBlocks: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.jump(g.Exit)
	// Deferred calls run on every exit path; modeling them in the Exit
	// block (in LIFO order) lets dataflow see their uses after all
	// returns.
	for i := len(b.defers) - 1; i >= 0; i-- {
		g.Exit.Stmts = append(g.Exit.Stmts, b.defers[i])
	}
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an unconditional edge to target and
// leaves no current block.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// terminate ends the current path (return, panic, break, ...); any
// following statements land in a fresh unreachable block.
func (b *builder) terminate() {
	b.cur = b.newBlock()
}

func (b *builder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, n)
}

// enter moves construction into target, which must have been linked by
// edges already (or is intentionally unreachable).
func (b *builder) enter(target *Block) { b.cur = target }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending statement label, if any.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		then := b.newBlock()
		join := b.newBlock()
		els := join
		if s.Else != nil {
			els = b.newBlock()
		}
		b.cond(s.Cond, then, els)
		b.enter(then)
		b.stmt(s.Body)
		b.jump(join)
		if s.Else != nil {
			b.enter(els)
			b.stmt(s.Else)
			b.jump(join)
		}
		b.enter(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jump(head)
		b.enter(head)
		if s.Cond != nil {
			b.cond(s.Cond, body, join)
		} else {
			b.edge(head, body)
			b.cur = nil
		}
		b.frames = append(b.frames, frame{label: label, isLoop: true, breakTo: join, continueTo: post})
		b.enter(body)
		b.stmt(s.Body)
		if s.Post != nil {
			b.jump(post)
			b.enter(post)
			b.append(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.enter(join)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		b.jump(head)
		b.enter(head)
		b.append(&RangeHead{Range: s})
		b.edge(head, body)
		b.edge(head, join)
		b.cur = nil
		b.frames = append(b.frames, frame{label: label, isLoop: true, breakTo: join, continueTo: head})
		b.enter(body)
		b.stmt(s.Body)
		b.jump(head)
		b.frames = b.frames[:len(b.frames)-1]
		b.enter(join)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.caseClauses(label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.caseClauses(label, s.Body.List, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		header := b.cur
		if header == nil {
			header = b.newBlock()
			b.cur = header
		}
		b.frames = append(b.frames, frame{label: label, breakTo: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(header, blk)
			b.enter(blk)
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = nil
		b.enter(join)

	case *ast.LabeledStmt:
		target, ok := b.labelBlocks[s.Label.Name]
		if !ok {
			target = b.newBlock()
			b.labelBlocks[s.Label.Name] = target
		}
		b.jump(target)
		b.enter(target)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.jump(f.breakTo)
			}
			b.terminate()
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.jump(f.continueTo)
			}
			b.terminate()
		case token.GOTO:
			target, ok := b.labelBlocks[s.Label.Name]
			if !ok {
				target = b.newBlock()
				b.labelBlocks[s.Label.Name] = target
			}
			b.jump(target)
			b.terminate()
		case token.FALLTHROUGH:
			if b.fallTarget != nil {
				b.jump(b.fallTarget)
			}
			b.terminate()
		}

	case *ast.ReturnStmt:
		b.append(s)
		b.jump(b.g.Exit)
		b.terminate()

	case *ast.DeferStmt:
		b.append(s)
		b.defers = append(b.defers, s.Call)

	case *ast.ExprStmt:
		b.append(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.noReturn(call) {
			b.jump(b.g.Exit)
			b.terminate()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.append(s)
	}
}

// caseClauses lowers switch/type-switch bodies: each clause's match
// expressions live in a test block chained to the next clause, bodies
// edge to the join, and fallthrough (expression switches only) edges a
// body to the next body.
func (b *builder) caseClauses(label string, clauses []ast.Stmt, allowFallthrough bool) {
	join := b.newBlock()
	if len(clauses) == 0 {
		b.jump(join)
		b.enter(join)
		return
	}
	b.frames = append(b.frames, frame{label: label, breakTo: join})
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	defaultIdx := -1
	test := b.cur
	if test == nil {
		test = b.newBlock()
		b.cur = test
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			defaultIdx = i
			continue
		}
		if allowFallthrough {
			for _, e := range cc.List {
				test.Stmts = append(test.Stmts, e)
			}
		}
		next := b.newBlock()
		b.edge(test, bodies[i])
		b.edge(test, next)
		test = next
	}
	if defaultIdx >= 0 {
		b.edge(test, bodies[defaultIdx])
	} else {
		b.edge(test, join)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		savedFall := b.fallTarget
		if allowFallthrough && i+1 < len(clauses) {
			b.fallTarget = bodies[i+1]
		} else {
			b.fallTarget = nil
		}
		b.enter(bodies[i])
		b.stmtList(cc.Body)
		b.jump(join)
		b.fallTarget = savedFall
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.enter(join)
}

// findFrame resolves a break/continue target, by label when given.
func (b *builder) findFrame(label *ast.Ident, needLoop bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func (b *builder) noReturn(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.opt.NoReturn != nil && b.opt.NoReturn(call)
}

// cond lowers a branch condition into the graph: short-circuit
// operands get their own blocks so each leaf comparison is a separate
// condition block with a true edge (Succs[0]) and a false edge
// (Succs[1]).
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock()
			b.cond(x.X, rhs, f)
			b.enter(rhs)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock()
			b.cond(x.X, t, rhs)
			b.enter(rhs)
			b.cond(x.Y, t, f)
			return
		}
	}
	b.append(e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
	b.cur = nil
}

// FindNode locates the top-level Stmts entry whose source range covers
// pos, returning its block and index within Block.Stmts. Positions
// inside nested function literals resolve to the enclosing statement —
// build a separate graph for the literal's body to analyze its inside.
func (g *Graph) FindNode(pos token.Pos) (*Block, int) {
	for _, blk := range g.Blocks {
		for i, s := range blk.Stmts {
			if s.Pos() <= pos && pos < s.End() {
				return blk, i
			}
		}
	}
	return nil, -1
}

// DomTree is the dominator tree of a Graph, computed over the blocks
// reachable from Entry.
type DomTree struct {
	idom map[*Block]*Block
	rpo  map[*Block]int
}

// Dominators computes the dominator tree with the iterative
// Cooper-Harvey-Kennedy algorithm; the graphs here are tens of blocks,
// so simplicity beats asymptotics.
func (g *Graph) Dominators() *DomTree {
	// Reverse postorder over reachable blocks.
	var order []*Block
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpo := map[*Block]int{}
	for i, b := range order {
		rpo[b] = i
	}
	idom := map[*Block]*Block{g.Entry: g.Entry}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var ni *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if ni == nil {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != nil && idom[b] != ni {
				idom[b] = ni
				changed = true
			}
		}
	}
	return &DomTree{idom: idom, rpo: rpo}
}

// Idom returns b's immediate dominator (nil for the entry block and
// for unreachable blocks).
func (t *DomTree) Idom(b *Block) *Block {
	d := t.idom[b]
	if d == b {
		return nil
	}
	return d
}

// Reachable reports whether b is reachable from the entry block.
func (t *DomTree) Reachable(b *Block) bool { return t.idom[b] != nil }
