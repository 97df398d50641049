// Closure and reachability queries over the call graph: the substrate
// of the determinism certifier. Given a set of root functions, Reach
// computes every function they can call (static, closure and
// CHA-resolved interface edges), records the call chain back to a root
// for every member, and collects the edges that cannot be closed over —
// dynamic calls and calls out of the universe — as obligations the
// certifier must classify, allowlist, or have suppressed with a reason.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// FullName returns the node's package-path-qualified name:
// "rsin/internal/sim.Run", "rsin/internal/sim.(*timerTree).arm",
// "rsin/internal/runner.Map$2" for an anonymous literal. It is the key
// root specs resolve against.
func (n *Node) FullName() string {
	if n.Pkg == nil {
		return n.Name
	}
	short := n.Pkg.Pkg.Name()
	if rest, ok := strings.CutPrefix(n.Name, short+"."); ok {
		return n.Pkg.Path + "." + rest
	}
	return n.Pkg.Path + "." + n.Name
}

// FindFunc resolves a root specification to nodes. A spec matches a
// node when it equals the node's FullName, or the FullName with the
// module prefix dropped ("internal/sim.Run"), or the node's short
// diagnostic Name ("sim.Run"). Ambiguous short specs return every
// match; the caller decides whether that is an error.
func (g *Graph) FindFunc(spec string) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		full := n.FullName()
		if full == spec || n.Name == spec || strings.HasSuffix(full, "/"+spec) {
			out = append(out, n)
		}
	}
	return out
}

// ObligationKind classifies an edge the closure cannot verify.
type ObligationKind int

const (
	// ObligationDynamic is an indirect call through a function value or
	// an externally defined interface: the callee is unknown.
	ObligationDynamic ObligationKind = iota
	// ObligationExternal is a call out of the analyzed universe (the
	// standard library): the callee's body is not available.
	ObligationExternal
)

// String names the kind for certificates and diagnostics.
func (k ObligationKind) String() string {
	switch k {
	case ObligationDynamic:
		return "dynamic"
	case ObligationExternal:
		return "external"
	default:
		return fmt.Sprintf("ObligationKind(%d)", int(k))
	}
}

// Obligation is one unresolvable edge out of a closure member.
type Obligation struct {
	Caller *Node
	Kind   ObligationKind
	// Callee is the external callee's full name ("fmt.Fprintf"); empty
	// for dynamic calls.
	Callee string
	// CalleePkg is the external callee's package path; empty for
	// dynamic calls and for universe/builtin functions without one.
	CalleePkg string
	Pos       token.Pos
}

// parentLink records how a closure member was first reached.
type parentLink struct {
	caller *Node
	pos    token.Pos
	// lexical marks members included because their function literal
	// appears lexically inside the caller (a callback passed to an
	// external function like sort.Slice has no call edge, but its body
	// still runs under the root).
	lexical bool
}

// Closure is the reachable set of a root collection.
type Closure struct {
	Roots []*Node
	// Nodes holds every member (roots included) sorted by FullName.
	Nodes []*Node
	// Obligations holds the unresolved edges out of members, sorted by
	// caller name then position.
	Obligations []Obligation

	members map[*Node]bool
	parent  map[*Node]parentLink
}

// Contains reports whether n is a member of the closure.
func (c *Closure) Contains(n *Node) bool { return c.members[n] }

// PathTo returns the call chain from a root to n (both included), or
// nil when n is not a member.
func (c *Closure) PathTo(n *Node) []*Node {
	if !c.members[n] {
		return nil
	}
	var rev []*Node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		link, ok := c.parent[cur]
		if !ok {
			break
		}
		cur = link.caller
	}
	out := make([]*Node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// Reach computes the closure of roots over static, closure and
// interface edges. Dynamic and external edges terminate the walk and
// are recorded as obligations. Function literals lexically nested in a
// member are members too, even without a call edge: a comparator passed
// to sort.Slice runs under the root even though the call into it is
// external.
func (g *Graph) Reach(roots []*Node) *Closure {
	c := &Closure{
		Roots:   append([]*Node(nil), roots...),
		members: map[*Node]bool{},
		parent:  map[*Node]parentLink{},
	}
	queue := make([]*Node, 0, len(roots))
	push := func(n *Node, link parentLink, isRoot bool) {
		if n == nil || c.members[n] {
			return
		}
		c.members[n] = true
		if !isRoot {
			c.parent[n] = link
		}
		queue = append(queue, n)
	}
	for _, r := range roots {
		push(r, parentLink{}, true)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			switch e.Kind {
			case EdgeDynamic:
				c.Obligations = append(c.Obligations, Obligation{
					Caller: n, Kind: ObligationDynamic, Pos: e.Call.Pos(),
				})
			case EdgeExternal:
				ob := Obligation{Caller: n, Kind: ObligationExternal, Pos: e.Call.Pos()}
				if e.Ext != nil {
					ob.Callee = e.Ext.FullName()
					if p := e.Ext.Pkg(); p != nil {
						ob.CalleePkg = p.Path()
					}
				}
				c.Obligations = append(c.Obligations, ob)
			default:
				push(e.Callee, parentLink{caller: n, pos: e.Call.Pos()}, false)
			}
		}
		// Lexically nested literals run under this member even when the
		// only call into them is external or dynamic.
		if body := n.Body(); body != nil {
			ast.Inspect(body, func(nd ast.Node) bool {
				lit, ok := nd.(*ast.FuncLit)
				if !ok {
					return true
				}
				if ln := g.ByLit[lit]; ln != nil {
					push(ln, parentLink{caller: n, pos: lit.Pos(), lexical: true}, false)
				}
				return false // the literal's own body is walked as its node
			})
		}
	}
	for n := range c.members {
		c.Nodes = append(c.Nodes, n)
	}
	sort.Slice(c.Nodes, func(i, j int) bool {
		a, b := c.Nodes[i].FullName(), c.Nodes[j].FullName()
		if a != b {
			return a < b
		}
		return c.Nodes[i].Pos() < c.Nodes[j].Pos()
	})
	sort.SliceStable(c.Obligations, func(i, j int) bool {
		a, b := c.Obligations[i], c.Obligations[j]
		if a.Caller.FullName() != b.Caller.FullName() {
			return a.Caller.FullName() < b.Caller.FullName()
		}
		return a.Pos < b.Pos
	})
	return c
}

// DescribePath renders a call chain for diagnostics:
// "sim.Run → sim.Run$tryStart → stats.Observe".
func DescribePath(path []*Node) string {
	var b strings.Builder
	for i, n := range path {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(n.Name)
	}
	return b.String()
}
