package crossbar

import (
	"fmt"

	"rsin/internal/invariant"
	"rsin/internal/logic"
)

// Cell is the gate-level model of one distributed-scheduling crossbar
// cell (paper Fig. 6(b) / Table I). The cell at row i, column j latches
// processor i onto bus j when, during the request mode, the row carries
// a request (X=1) and the column carries a free-bus/free-resource
// signal (Y=1). The request signal is absorbed on allocation and the
// resource signal is blocked below an allocated cell or below a cell
// whose latch is already on.
//
// Realization (one of the equivalents of the paper's 11-gate cell; the
// paper's own circuit is in its reference [30]):
//
//	S     = MODE·X·Y
//	R     = MODE̅·X
//	X_out = X·NAND(MODE, Y)
//	Y_out = Y·(MODE̅ + X̅·L̅)
//
// with MODE and MODE̅ both distributed as control lines. The critical
// path in request mode is 4 gate delays (X̅/L̅ → AND → OR → AND on the
// Y_out path); in reset mode it is 1 gate delay (the R AND gate),
// reproducing the paper's cycle bounds of 4(p+m) and (p+m).
type Cell struct {
	c                      *logic.Circuit
	eval                   *logic.Evaluator
	mode, nmode, x, y, lat logic.Node
	xOut, yOut, s, r       logic.Node
}

// CellOutputs is the evaluated result of one cell.
type CellOutputs struct {
	XOut, YOut bool // signals passed to the next cell in row/column
	S, R       bool // latch set/reset pulses
	XTime      int  // settle time of X_out in gate delays
	YTime      int  // settle time of Y_out in gate delays
}

// NewCell builds the cell netlist.
func NewCell() *Cell {
	c := logic.New()
	cell := &Cell{c: c}
	cell.mode = c.Input()  // 1 = request mode
	cell.nmode = c.Input() // complement control line
	cell.x = c.Input()
	cell.y = c.Input()
	cell.lat = c.Input() // current latch state L

	nx := c.Gate(logic.OpNot, cell.x)
	nl := c.Gate(logic.OpNot, cell.lat)
	cell.s = c.Gate(logic.OpAnd, cell.mode, cell.x, cell.y)
	cell.r = c.Gate(logic.OpAnd, cell.nmode, cell.x)
	nMY := c.Gate(logic.OpNand, cell.mode, cell.y)
	cell.xOut = c.Gate(logic.OpAnd, cell.x, nMY)
	xl := c.Gate(logic.OpAnd, nx, nl)
	or := c.Gate(logic.OpOr, cell.nmode, xl)
	cell.yOut = c.Gate(logic.OpAnd, cell.y, or)
	cell.eval = c.NewEvaluator()
	return cell
}

// NumGates returns the cell's gate count (the paper's budget is 11
// gates plus one latch; this equivalent realization uses fewer).
func (cl *Cell) NumGates() int { return cl.c.NumGates() }

// Eval evaluates the cell. mode is true in request mode. xTime and
// yTime give the settle times of the incoming X and Y signals; MODE and
// the latch state are stable (time 0). The cell reuses an internal
// evaluator, so it is not safe for concurrent use (the arrays that
// contain cells are sequential wavefronts anyway).
func (cl *Cell) Eval(mode, x, y, latch bool, xTime, yTime int) CellOutputs {
	return cl.EvalRaw(mode, !mode, x, y, latch, xTime, yTime)
}

// EvalRaw evaluates the cell with MODE and MODE̅ driven independently,
// exposing the full 2⁵ raw input domain (including the inconsistent
// mode == nmode combinations) for conformance checking against the
// Table I reference. Normal operation goes through Eval, which ties
// the control lines together.
func (cl *Cell) EvalRaw(mode, nmode, x, y, latch bool, xTime, yTime int) CellOutputs {
	e := cl.eval
	e.SetInput(cl.mode, mode, 0)
	e.SetInput(cl.nmode, nmode, 0)
	e.SetInput(cl.x, x, xTime)
	e.SetInput(cl.y, y, yTime)
	e.SetInput(cl.lat, latch, 0)
	e.Run()
	return CellOutputs{
		XOut:  e.Value(cl.xOut),
		YOut:  e.Value(cl.yOut),
		S:     e.Value(cl.s),
		R:     e.Value(cl.r),
		XTime: e.Time(cl.xOut),
		YTime: e.Time(cl.yOut),
	}
}

// Conform checks the netlist against invariant.CellSpec — the paper's
// Table I truth table — over all 32 raw input combinations. It returns
// a *invariant.Violation describing the first mismatch, or nil.
func (cl *Cell) Conform() error {
	for bits := 0; bits < 32; bits++ {
		mode := bits&1 != 0
		nmode := bits&2 != 0
		x := bits&4 != 0
		y := bits&8 != 0
		latch := bits&16 != 0
		got := cl.EvalRaw(mode, nmode, x, y, latch, 0, 0)
		s, r, xOut, yOut := invariant.CellSpec(mode, nmode, x, y, latch)
		if got.S != s || got.R != r || got.XOut != xOut || got.YOut != yOut {
			return invariant.Errorf("crossbar",
				"cell netlist diverges from Table I at mode=%v nmode=%v x=%v y=%v latch=%v: got S=%v R=%v XOut=%v YOut=%v, want S=%v R=%v XOut=%v YOut=%v",
				mode, nmode, x, y, latch, got.S, got.R, got.XOut, got.YOut, s, r, xOut, yOut)
		}
	}
	return nil
}

// CellArray is the full p×m grid of gate-level cells with their control
// latches — the structural model of the paper's Fig. 6(a) switch.
type CellArray struct {
	p, m    int
	cell    *Cell // cells are identical; one netlist is shared
	latches [][]logic.SRLatch
}

// NewCellArray builds a p-processor × m-bus array.
func NewCellArray(p, m int) *CellArray {
	if p <= 0 || m <= 0 {
		panic(fmt.Sprintf("crossbar: invalid array %dx%d", p, m))
	}
	a := &CellArray{p: p, m: m, cell: NewCell()}
	if invariant.Enabled() {
		if err := a.cell.Conform(); err != nil {
			panic(err)
		}
	}
	a.latches = make([][]logic.SRLatch, p)
	for i := range a.latches {
		a.latches[i] = make([]logic.SRLatch, m)
	}
	return a
}

// CycleResult reports the outcome of one request or reset cycle.
type CycleResult struct {
	// Grants maps processor → allocated bus (−1 if none).
	Grants []int
	// UnsatisfiedX lists processors whose request fell off the end of
	// their row (X_{i,m} = 1): they must resubmit next cycle.
	UnsatisfiedX []bool
	// UnusedY lists columns whose resource signal reached the bottom
	// (Y_{p,j} = 1): the bus was not allocated this cycle.
	UnusedY []bool
	// SettleTime is when the slowest signal settled, in gate delays.
	SettleTime int
}

// RequestCycle runs one request mode cycle: requests[i] is processor
// i's X_{i,0}, controllers[j] is R_j's Y_{0,j} (bus j free and ≥1 free
// resource). Latches are updated from the S pulses. The wavefront is
// evaluated cell by cell in row-major order, which is a valid
// topological order because X flows rightward and Y flows downward.
func (a *CellArray) RequestCycle(requests, controllers []bool) CycleResult {
	if len(requests) != a.p || len(controllers) != a.m {
		panic("crossbar: RequestCycle input sizes mismatch")
	}
	return a.cycle(true, requests, controllers)
}

// ResetCycle runs one reset mode cycle: resets[i] releases every latch
// in row i (processor i relinquishes its allocation).
func (a *CellArray) ResetCycle(resets []bool) CycleResult {
	if len(resets) != a.p {
		panic("crossbar: ResetCycle input size mismatch")
	}
	controllers := make([]bool, a.m)
	for j := range controllers {
		controllers[j] = true // Y is ignored for R; drive benignly
	}
	return a.cycle(false, resets, controllers)
}

func (a *CellArray) cycle(request bool, xIn, yIn []bool) CycleResult {
	res := CycleResult{
		Grants:       make([]int, a.p),
		UnsatisfiedX: make([]bool, a.p),
		UnusedY:      make([]bool, a.m),
	}
	for i := range res.Grants {
		res.Grants[i] = -1
	}
	xv := make([]bool, a.p) // X entering current column, per row
	xt := make([]int, a.p)
	type colSig struct {
		v bool
		t int
	}
	ycur := make([]colSig, a.m)
	for j := range ycur {
		ycur[j] = colSig{v: yIn[j]}
	}
	copy(xv, xIn)

	type pulse struct {
		i, j int
		s, r bool
	}
	var pulses []pulse
	for i := 0; i < a.p; i++ {
		for j := 0; j < a.m; j++ {
			out := a.cell.Eval(request, xv[i], ycur[j].v, a.latches[i][j].Q(), xt[i], ycur[j].t)
			if out.S || out.R {
				pulses = append(pulses, pulse{i: i, j: j, s: out.S, r: out.R})
			}
			if out.S {
				res.Grants[i] = j
			}
			xv[i], xt[i] = out.XOut, out.XTime
			ycur[j] = colSig{v: out.YOut, t: out.YTime}
			if out.XTime > res.SettleTime {
				res.SettleTime = out.XTime
			}
			if out.YTime > res.SettleTime {
				res.SettleTime = out.YTime
			}
		}
		res.UnsatisfiedX[i] = xv[i]
	}
	for j := 0; j < a.m; j++ {
		res.UnusedY[j] = ycur[j].v
	}
	if request && invariant.Enabled() {
		rowGranted := make([]bool, a.p)
		colGranted := make([]bool, a.m)
		for _, p := range pulses {
			if !p.s {
				continue
			}
			invariant.Assert(!rowGranted[p.i], "crossbar",
				"row %d received two grants in one request cycle", p.i)
			invariant.Assert(!colGranted[p.j], "crossbar",
				"column %d granted to two processors in one request cycle", p.j)
			rowGranted[p.i], colGranted[p.j] = true, true
			invariant.Assert(xIn[p.i], "crossbar",
				"grant at (%d,%d) without a request on row %d", p.i, p.j, p.i)
			invariant.Assert(yIn[p.j], "crossbar",
				"grant at (%d,%d) without a controller signal on column %d", p.i, p.j, p.j)
		}
	}
	// Latches accept their pulses at the end of the cycle.
	for _, p := range pulses {
		a.latches[p.i][p.j].Apply(p.s, p.r)
	}
	return res
}

// Latch reports the latch state of cell (i, j).
func (a *CellArray) Latch(i, j int) bool { return a.latches[i][j].Q() }
