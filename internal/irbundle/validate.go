package irbundle

import (
	"fmt"

	"kremlin/internal/ast"
	"kremlin/internal/cfg"
	"kremlin/internal/ir"
	"kremlin/internal/types"
)

// validate checks that a decoded module is something the Kr compiler could
// have produced: well-typed instructions, structurally sound blocks
// (non-empty, exactly one terminator, last), CFG edges whose pred lists
// mirror the branch targets, every block reachable, reducible control flow
// (regions' loop forest assumes it), SSA uses dominated by their
// definitions, and a zero-parameter main. Anything else would surface as an
// engine panic or a garbage profile instead of an error — bundles are
// untrusted input, so it surfaces here.
func validate(mod *ir.Module) error {
	main := mod.Main()
	if main == nil {
		return fmt.Errorf("no main function")
	}
	if len(main.Params) != 0 {
		return fmt.Errorf("main takes %d parameters, want 0", len(main.Params))
	}
	for _, f := range mod.Funcs {
		if err := validateFunc(f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

func validateFunc(f *ir.Func) error {
	entry := f.Blocks[0]
	if len(entry.Preds) != 0 {
		return fmt.Errorf("entry block has predecessors")
	}
	for _, p := range f.Params {
		if p.Block != entry {
			return fmt.Errorf("param %s defined outside the entry block", p.Name())
		}
	}

	// Block shape: non-empty, one terminator, last; phis form a prefix.
	for _, b := range f.Blocks {
		if err := b.CheckShape(); err != nil {
			return err
		}
	}

	// Preds mirror branch targets, edge for edge (with multiplicity).
	in := make(map[*ir.Block]map[*ir.Block]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, t := range b.Terminator().Targets {
			m := in[t]
			if m == nil {
				m = map[*ir.Block]int{}
				in[t] = m
			}
			m[b]++
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if in[b][p] == 0 {
				return fmt.Errorf("block %s lists pred %s without a matching edge", b, p)
			}
			in[b][p]--
		}
		for p, n := range in[b] {
			if n != 0 {
				return fmt.Errorf("edge %s->%s missing from pred list", p, b)
			}
		}
	}

	// Reachability: the regions/cfg passes assume RemoveUnreachable ran.
	reached := map[*ir.Block]bool{entry: true}
	stack := []*ir.Block{entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reached[s] {
				reached[s] = true
				stack = append(stack, s)
			}
		}
	}
	if len(reached) != len(f.Blocks) {
		return fmt.Errorf("%d unreachable blocks", len(f.Blocks)-len(reached))
	}

	g := cfg.New(f)
	idom := g.Dominators()
	dom := newDomIntervals(idom)

	// Reducibility: every retreating edge (RPO-later to RPO-earlier) must be
	// a back edge (target dominates source). The loop forest the regions
	// pass builds is only meaningful on reducible CFGs.
	rpoNum := make([]int, len(f.Blocks))
	for i, u := range g.RPO() {
		rpoNum[u] = i
	}
	for u, succs := range g.Succs {
		for _, v := range succs {
			if rpoNum[v] <= rpoNum[u] && !dom.dominates(v, u) {
				return fmt.Errorf("irreducible control flow: edge %s->%s", f.Blocks[u], f.Blocks[v])
			}
		}
	}

	// Instruction-level checks.
	type point struct{ blk, idx int }
	at := make(map[*ir.Instr]point, 16)
	for bi, b := range f.Blocks {
		for ii, ins := range b.Instrs {
			at[ins] = point{bi, ii}
		}
	}
	// defDominatesUse: the def must execute before the use point can.
	defDominatesUse := func(def *ir.Instr, useBlk, useIdx int) bool {
		d, ok := at[def]
		if !ok {
			return false
		}
		if d.blk == useBlk {
			return d.idx < useIdx
		}
		return dom.dominates(d.blk, useBlk)
	}
	for bi, b := range f.Blocks {
		for ii, ins := range b.Instrs {
			if err := checkInstr(f, ins); err != nil {
				return fmt.Errorf("block %s: %s: %w", b, ins.Op, err)
			}
			for ai, a := range ins.Args {
				def, ok := a.(*ir.Instr)
				if !ok {
					continue
				}
				ub, ui := bi, ii
				if ins.Op == ir.OpPhi {
					// A phi's i-th operand is read at the end of the i-th
					// predecessor.
					ub, ui = g.Index(b.Preds[ai]), len(b.Preds[ai].Instrs)
				}
				if !defDominatesUse(def, ub, ui) {
					return fmt.Errorf("block %s: %s operand %d (%s) does not dominate its use", b, ins.Op, ai, def.Name())
				}
			}
		}
	}
	return nil
}

// domIntervals answers dominance queries in O(1) via pre/post numbering of
// the dominator tree.
type domIntervals struct{ tin, tout []int }

func newDomIntervals(idom []int) *domIntervals {
	n := len(idom)
	kids := make([][]int, n)
	for v, d := range idom {
		if v != d && d >= 0 {
			kids[d] = append(kids[d], v)
		}
	}
	d := &domIntervals{tin: make([]int, n), tout: make([]int, n)}
	clock := 0
	// Iterative DFS from the entry (node 0, its own idom).
	type frame struct{ node, next int }
	stack := []frame{{0, 0}}
	d.tin[0] = clock
	clock++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(kids[fr.node]) {
			c := kids[fr.node][fr.next]
			fr.next++
			d.tin[c] = clock
			clock++
			stack = append(stack, frame{c, 0})
			continue
		}
		d.tout[fr.node] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return d
}

func (d *domIntervals) dominates(a, b int) bool {
	return d.tin[a] <= d.tin[b] && d.tout[b] <= d.tout[a]
}

func scalar(k ast.BasicKind) types.Type { return types.Scalar(k) }

// isArraySource reports whether v is a value the engines can treat as an
// array descriptor: only these four opcodes materialize one.
func isArraySource(v ir.Value) bool {
	ins, ok := v.(*ir.Instr)
	if !ok || ins.Typ.Dims < 1 {
		return false
	}
	switch ins.Op {
	case ir.OpParam, ir.OpGlobal, ir.OpAllocArray, ir.OpView:
		return true
	}
	return false
}

// cellElem returns the element kind of a scalar memory cell (a rank-0 view
// or a scalar global), or Invalid if v is not one. OpLoad/OpStore operands
// must be cells: anything else would make the engines index the simulated
// heap through a zero descriptor.
func cellElem(v ir.Value) ast.BasicKind {
	ins, ok := v.(*ir.Instr)
	if !ok {
		return ast.Invalid
	}
	switch ins.Op {
	case ir.OpView:
		if ins.Typ.Dims == 0 {
			return ins.Typ.Elem
		}
	case ir.OpGlobal:
		if ins.Global != nil && !ins.Global.IsArray() {
			return ins.Global.Elem
		}
	}
	return ast.Invalid
}

func wantArg(ins *ir.Instr, i int, t types.Type) error {
	if ins.Args[i].Type() != t {
		return fmt.Errorf("operand %d is %s, want %s", i, ins.Args[i].Type(), t)
	}
	return nil
}

func wantArity(ins *ir.Instr, n int) error {
	if len(ins.Args) != n {
		return fmt.Errorf("%d operands, want %d", len(ins.Args), n)
	}
	return nil
}

func wantResult(ins *ir.Instr, t types.Type) error {
	if ins.Typ != t {
		return fmt.Errorf("result type %s, want %s", ins.Typ, t)
	}
	return nil
}

func wantTargets(ins *ir.Instr, n int) error {
	if len(ins.Targets) != n {
		return fmt.Errorf("%d branch targets, want %d", len(ins.Targets), n)
	}
	return nil
}

func numericScalar(t types.Type) bool {
	return t.Dims == 0 && (t.Elem == ast.Int || t.Elem == ast.Float)
}

func checkInstr(f *ir.Func, ins *ir.Instr) error {
	if !ins.IsTerminator() {
		if err := wantTargets(ins, 0); err != nil {
			return err
		}
	}
	switch ins.Op {
	case ir.OpParam:
		if err := wantArity(ins, 0); err != nil {
			return err
		}
		if ins.Slot >= len(f.Params) || f.Params[ins.Slot] != ins {
			return fmt.Errorf("stray OpParam (slot %d not in the param list)", ins.Slot)
		}
		if !scalarKind(ins.Typ.Elem) {
			return fmt.Errorf("bad param type %s", ins.Typ)
		}

	case ir.OpBin:
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		switch {
		case ins.Bin >= ir.BinAdd && ins.Bin <= ir.BinRem:
			if !numericScalar(ins.Typ) {
				return fmt.Errorf("arithmetic result %s", ins.Typ)
			}
			for i := range ins.Args {
				if err := wantArg(ins, i, ins.Typ); err != nil {
					return err
				}
			}
		case ins.Bin == ir.BinAnd || ins.Bin == ir.BinOr:
			if err := wantResult(ins, scalar(ast.Bool)); err != nil {
				return err
			}
			for i := range ins.Args {
				if err := wantArg(ins, i, scalar(ast.Bool)); err != nil {
					return err
				}
			}
		default: // comparisons
			if err := wantResult(ins, scalar(ast.Bool)); err != nil {
				return err
			}
			at := ins.Args[0].Type()
			if at.Dims != 0 || !scalarKind(at.Elem) {
				return fmt.Errorf("comparison of %s", at)
			}
			if err := wantArg(ins, 1, at); err != nil {
				return err
			}
		}

	case ir.OpNeg:
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		if !numericScalar(ins.Typ) {
			return fmt.Errorf("negation of %s", ins.Typ)
		}
		return wantArg(ins, 0, ins.Typ)

	case ir.OpNot:
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		if err := wantResult(ins, scalar(ast.Bool)); err != nil {
			return err
		}
		return wantArg(ins, 0, scalar(ast.Bool))

	case ir.OpConvert:
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		if !numericScalar(ins.Typ) || !numericScalar(ins.Args[0].Type()) {
			return fmt.Errorf("convert %s to %s", ins.Args[0].Type(), ins.Typ)
		}

	case ir.OpPhi:
		if len(ins.Args) != len(ins.Block.Preds) || len(ins.Args) == 0 {
			return fmt.Errorf("%d phi operands for %d preds", len(ins.Args), len(ins.Block.Preds))
		}
		if ins.Typ.Dims != 0 || !scalarKind(ins.Typ.Elem) {
			return fmt.Errorf("phi of %s", ins.Typ)
		}
		for i := range ins.Args {
			if err := wantArg(ins, i, ins.Typ); err != nil {
				return err
			}
		}

	case ir.OpAllocArray:
		if ins.Typ.Dims < 1 || ins.Typ.Dims > maxArrayDims || !scalarKind(ins.Typ.Elem) {
			return fmt.Errorf("alloc of %s", ins.Typ)
		}
		if err := wantArity(ins, ins.Typ.Dims); err != nil {
			return err
		}
		for i := range ins.Args {
			if err := wantArg(ins, i, scalar(ast.Int)); err != nil {
				return err
			}
		}

	case ir.OpGlobal:
		if ins.Global == nil {
			return fmt.Errorf("nil global")
		}
		if err := wantArity(ins, 0); err != nil {
			return err
		}
		want := types.Type{Elem: ins.Global.Elem, Dims: len(ins.Global.Dims)}
		return wantResult(ins, want)

	case ir.OpView:
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		if !isArraySource(ins.Args[0]) {
			return fmt.Errorf("view of non-array %s", ins.Args[0].Type())
		}
		base := ins.Args[0].Type()
		if err := wantResult(ins, types.Type{Elem: base.Elem, Dims: base.Dims - 1}); err != nil {
			return err
		}
		return wantArg(ins, 1, scalar(ast.Int))

	case ir.OpLoad:
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		k := cellElem(ins.Args[0])
		if k == ast.Invalid {
			return fmt.Errorf("load from non-cell")
		}
		return wantResult(ins, scalar(k))

	case ir.OpStore:
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		k := cellElem(ins.Args[0])
		if k == ast.Invalid {
			return fmt.Errorf("store to non-cell")
		}
		return wantArg(ins, 1, scalar(k))

	case ir.OpCall:
		if ins.Callee == nil {
			return fmt.Errorf("nil callee")
		}
		if err := wantResult(ins, scalar(ins.Callee.Ret)); err != nil {
			return err
		}
		if err := wantArity(ins, len(ins.Callee.Params)); err != nil {
			return err
		}
		for i, p := range ins.Callee.Params {
			if err := wantArg(ins, i, p.Typ); err != nil {
				return err
			}
			if p.Typ.Dims > 0 && !isArraySource(ins.Args[i]) {
				return fmt.Errorf("operand %d: array argument from non-array source", i)
			}
		}

	case ir.OpBuiltin:
		return checkBuiltin(ins)

	case ir.OpBr:
		if err := wantTargets(ins, 2); err != nil {
			return err
		}
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		return wantArg(ins, 0, scalar(ast.Bool))

	case ir.OpJump:
		if err := wantTargets(ins, 1); err != nil {
			return err
		}
		return wantArity(ins, 0)

	case ir.OpRet:
		if err := wantTargets(ins, 0); err != nil {
			return err
		}
		if f.Ret == ast.Void {
			return wantArity(ins, 0)
		}
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		return wantArg(ins, 0, scalar(f.Ret))

	default:
		return fmt.Errorf("unsupported opcode")
	}
	return nil
}

func checkBuiltin(ins *ir.Instr) error {
	unary := func(arg, ret ast.BasicKind) error {
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		if err := wantArg(ins, 0, scalar(arg)); err != nil {
			return err
		}
		return wantResult(ins, scalar(ret))
	}
	switch ins.Builtin {
	case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos":
		return unary(ast.Float, ast.Float)
	case "abs":
		return unary(ast.Int, ast.Int)
	case "srand":
		return unary(ast.Int, ast.Void)
	case "pow":
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := wantArg(ins, i, scalar(ast.Float)); err != nil {
				return err
			}
		}
		return wantResult(ins, scalar(ast.Float))
	case "min", "max":
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		if !numericScalar(ins.Typ) {
			return fmt.Errorf("%s of %s", ins.Builtin, ins.Typ)
		}
		for i := 0; i < 2; i++ {
			if err := wantArg(ins, i, ins.Typ); err != nil {
				return err
			}
		}
	case "rand":
		if err := wantArity(ins, 0); err != nil {
			return err
		}
		return wantResult(ins, scalar(ast.Int))
	case "frand":
		if err := wantArity(ins, 0); err != nil {
			return err
		}
		return wantResult(ins, scalar(ast.Float))
	case "dim":
		if err := wantArity(ins, 2); err != nil {
			return err
		}
		if !isArraySource(ins.Args[0]) {
			return fmt.Errorf("dim of non-array")
		}
		if err := wantArg(ins, 1, scalar(ast.Int)); err != nil {
			return err
		}
		return wantResult(ins, scalar(ast.Int))
	case "printval":
		if err := wantArity(ins, 1); err != nil {
			return err
		}
		t := ins.Args[0].Type()
		if t.Dims != 0 || !scalarKind(t.Elem) {
			return fmt.Errorf("printval of %s", t)
		}
		return wantResult(ins, scalar(ast.Void))
	case "printstr", "printnl":
		if err := wantArity(ins, 0); err != nil {
			return err
		}
		return wantResult(ins, scalar(ast.Void))
	default:
		return fmt.Errorf("unknown builtin %q", ins.Builtin)
	}
	return nil
}
