package bytecode

import (
	"fmt"
	"math"
	"sync"

	"kremlin/internal/absint"
	"kremlin/internal/ast"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/regions"
)

// Compile prepares a module for the VM; each function lowers into flat
// bytecode on first use (Program.Func). prog and instr are the region
// analysis and instrumentation tables the module was compiled with (the
// same ones the tree engine consults at run time); edges, control pushes,
// and region events are resolved against them once, at compilation. facts,
// when non-nil, supplies the abstract interpreter's proofs: views proven
// in bounds and divisors proven nonzero compile to unchecked opcode
// variants and open fusion windows that faultable instructions would
// otherwise close. A nil facts (-absint=off) compiles fully checked code;
// profiles, plans, and program output are identical either way — only the
// dispatch cost of the proven checks differs.
func Compile(mod *ir.Module, prog *regions.Program, instr *instrument.Module, facts *absint.Facts) *Program {
	p := &Program{Mod: mod, Prog: prog, funcs: make([]lazyFunc, len(mod.Funcs)),
		index: make(map[*ir.Func]int32, len(mod.Funcs)), instr: instr, facts: facts}
	for i, f := range mod.Funcs {
		p.index[f] = int32(i)
	}
	return p
}

// constKey dedups pool constants by kind and bit pattern.
type constKey struct {
	kind uint8 // 0 int, 1 float, 2 bool
	bits uint64
}

type fnCompiler struct {
	f        *ir.Func
	fc       *FuncCode
	fi       *instrument.FuncInstr
	idxOf    map[*ir.Block]int32
	uses     []int32 // value ID -> static reference count
	constIdx map[constKey]int32
	fidx     map[*ir.Func]int32 // function -> Program.Funcs index (opCall)
	// facts are the absint proofs consulted for unchecked emission; nil
	// disables elimination. inExact suppresses them while emitExact runs:
	// the exact range must stay fully checked so faulting programs
	// report the reference error at the reference position.
	facts   *absint.Facts
	inExact bool
}

// provenView reports whether the view's index was proven within its
// dimension on every execution (implies the operand has rank, so both the
// rank and bounds checks may be skipped).
func (c *fnCompiler) provenView(ins *ir.Instr) bool {
	return c.facts != nil && !c.inExact && c.facts.InBounds(ins)
}

// provenDiv reports whether an integer division/modulo's divisor was
// proven nonzero on every execution.
func (c *fnCompiler) provenDiv(ins *ir.Instr) bool {
	return c.facts != nil && !c.inExact && c.facts.NonZeroDivisor(ins)
}

// compactors recycles the Compactors, and their value-indexed scratch,
// from one function's compilation to the next.
var compactors = sync.Pool{New: func() any { return new(kremlib.Compactor) }}

func compileFunc(f *ir.Func, prog *regions.Program, instr *instrument.Module, fidx map[*ir.Func]int32, facts *absint.Facts) *FuncCode {
	c := &fnCompiler{
		f:     f,
		fidx:  fidx,
		facts: facts,
		fc: &FuncCode{
			F:         f,
			ConstBase: int32(f.NumValues()),
			Root:      prog.PerFunc[f].Root,
		},
		fi:       instr.PerFunc[f],
		idxOf:    make(map[*ir.Block]int32, len(f.Blocks)),
		uses:     make([]int32, f.NumValues()),
		constIdx: make(map[constKey]int32),
	}
	for i, b := range f.Blocks {
		c.idxOf[b] = int32(i)
		for _, ins := range b.Instrs {
			for _, a := range ins.Args {
				if ai, ok := a.(*ir.Instr); ok {
					c.uses[ai.ID]++
				}
			}
		}
	}
	c.fc.Blocks = make([]BBlock, len(f.Blocks))
	for i, b := range f.Blocks {
		c.compileBlock(int32(i), b)
	}
	var cp *kremlib.Compactor
	for i := range c.fc.Blocks {
		if bb := &c.fc.Blocks[i]; bb.Fused {
			if cp == nil {
				cp = compactors.Get().(*kremlib.Compactor)
				cp.Reset(f)
			}
			bb.Compact = cp.Template(bb.IR.Instrs[len(phisOf(bb.IR)):])
		}
	}
	if cp != nil {
		compactors.Put(cp)
	}
	for i := range c.fc.Blocks {
		c.emitExact(&c.fc.Blocks[i])
	}
	c.fc.NumRegs = c.fc.ConstBase + int32(len(c.fc.Consts))
	return c.fc
}

// opnd resolves an IR operand to a register-file index: instruction
// results keep their dense value IDs; constants are interned into the
// pool, which occupies the top of the register file.
func (c *fnCompiler) opnd(v ir.Value) int32 {
	switch v := v.(type) {
	case *ir.Instr:
		return int32(v.ID)
	case *ir.ConstInt:
		return c.constReg(constKey{0, uint64(v.V)}, val{i: v.V})
	case *ir.ConstFloat:
		return c.constReg(constKey{1, math.Float64bits(v.V)}, val{f: v.V})
	case *ir.ConstBool:
		var iv int64
		if v.V {
			iv = 1
		}
		return c.constReg(constKey{2, uint64(iv)}, val{i: iv})
	}
	return c.constReg(constKey{0, 0}, val{})
}

func (c *fnCompiler) constReg(k constKey, v val) int32 {
	if idx, ok := c.constIdx[k]; ok {
		return c.fc.ConstBase + idx
	}
	idx := int32(len(c.fc.Consts))
	c.fc.Consts = append(c.fc.Consts, v)
	c.constIdx[k] = idx
	return c.fc.ConstBase + idx
}

// compileBlock classifies blk, precompiles its edges and template, and
// emits its fused range when it has one; compileFunc emits every block's
// exact range afterwards, so the fused ranges sit together in Code. blk
// must satisfy ir.Block.CheckShape: irbuild only emits such blocks and the
// KRIB1 validator rejects any other, so a broken one is a compiler bug.
func (c *fnCompiler) compileBlock(bi int32, blk *ir.Block) {
	if err := blk.CheckShape(); err != nil {
		panic(fmt.Sprintf("bytecode: func %s: %v", c.f.Name, err))
	}
	bb := &c.fc.Blocks[bi]
	bb.IR = blk
	bb.Start, bb.End = -1, -1

	body := blk.Instrs[len(phisOf(blk)):]
	// Calls perturb the step counter mid-block; allocations can fail the
	// heap cap mid-block. Both must check per instruction, so their blocks
	// get no fused range.
	bb.Fused = true
	for _, ins := range body {
		bb.NSteps++
		bb.LatSum += ins.Latency()
		if ins.Op == ir.OpCall || ins.Op == ir.OpAllocArray {
			bb.Fused = false
		}
	}

	if popAt, ok := c.fi.PopAt[blk]; ok && popAt != nil {
		bb.HasPush = true
		bb.PopAt = popAt
	}

	// Edges (the terminator's targets, in then/else order).
	if t := blk.Terminator(); t.Op == ir.OpBr {
		bb.Edge0 = c.addEdge(blk, t.Targets[0])
		bb.Edge1 = c.addEdge(blk, t.Targets[1])
	} else if t.Op == ir.OpJump {
		bb.Edge0 = c.addEdge(blk, t.Targets[0])
	}

	if bb.Fused {
		c.emit(bb, body)
	}
	// The template's memory entries follow IR order, which is also the
	// order both ranges execute their loads and stores in (fusion elides
	// views, never a load or store), so they line up with the VM's address
	// buffer.
	bb.Tpl = kremlib.BlockTemplateOf(body)
}

// phisOf returns blk's leading phis.
func phisOf(blk *ir.Block) []*ir.Instr {
	n := 0
	for n < len(blk.Instrs) && blk.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return blk.Instrs[:n]
}

// addEdge precompiles the CFG edge blk→to: target index, phi moves and
// HCPA template, predecessor index, and region events.
func (c *fnCompiler) addEdge(blk, to *ir.Block) int32 {
	e := Edge{Target: c.idxOf[to], PredIdx: -1}
	for i, p := range to.Preds {
		if p == blk {
			e.PredIdx = int32(i)
			break
		}
	}
	phis := phisOf(to)
	for _, ins := range phis {
		if e.PredIdx >= 0 && int(e.PredIdx) < len(ins.Args) {
			e.Moves = append(e.Moves, Move{Dst: int32(ins.ID), Src: c.opnd(ins.Args[e.PredIdx])})
		}
	}
	e.NPhis = uint32(len(phis))
	if len(phis) > 0 {
		e.Tpl = kremlib.EdgeTemplateOf(phis, int(e.PredIdx))
	}
	ev := c.fi.EdgeEvents(blk, to)
	e.NExit = int32(len(ev.Exit))
	e.Iterate = ev.Iterate
	e.Enter = ev.Enter
	idx := int32(len(c.fc.Edges))
	c.fc.Edges = append(c.fc.Edges, e)
	return idx
}

// transparent reports whether an instruction may sit between a fused view
// and its load/store without breaking exact engine equivalence. Fusing
// moves the view's bounds check later in the block; that is unobservable
// as long as nothing in between can fault (the wrong error would win) or
// write to the output stream (the tree engine would have stopped first).
// Everything else — register arithmetic, heap reads, even RNG draws — is
// invisible once a runtime error aborts the run (errors return no result
// and no partial state). Instructions the abstract interpreter proved
// fault-free — in-bounds views, nonzero divisors — are transparent too:
// they cannot produce the error that would win.
func (c *fnCompiler) transparent(ins *ir.Instr) bool {
	switch ins.Op {
	case ir.OpBin:
		// Integer division and modulo fault on zero; all other binary ops
		// (including float division) are total.
		if ins.Bin == ir.BinDiv || ins.Bin == ir.BinRem {
			return ins.Args[0].Type().Elem == ast.Float || c.provenDiv(ins)
		}
		return true
	case ir.OpNeg, ir.OpNot, ir.OpConvert, ir.OpGlobal, ir.OpLoad, ir.OpParam:
		return true
	case ir.OpView:
		return c.provenView(ins)
	case ir.OpBuiltin:
		switch ins.Builtin {
		case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos", "pow",
			"abs", "min", "max", "rand", "frand", "srand":
			return true
		}
		// dim faults; prints are observable output.
		return false
	}
	// Unproven views fault, stores/terminators/calls close the window.
	return false
}

// fusion decides the block's superinstruction groups: a comparison feeding
// the block's branch (single use, adjacent) fuses into a compare-branch,
// returned in fuse; a single-use view chain feeding a load/store through
// transparent windows fuses into one indexed access of the chain's rank,
// returned in chains (views outermost-first). Fused producers are elided
// from the stream — their registers are never read (single use), and the
// transparent-window rule preserves the exact error ordering relative to
// observable effects. A chain may stop short of the root array (e.g. an
// index expression that can fault between two views closes the window);
// the remaining outer views then emit normally and the fused op indexes
// the innermost surviving view's register.
func (c *fnCompiler) fusion(body []*ir.Instr) (fuse map[*ir.Instr]*ir.Instr, chains map[*ir.Instr][]*ir.Instr, latch map[*ir.Instr]*ir.Instr) {
	fuse = make(map[*ir.Instr]*ir.Instr)
	chains = make(map[*ir.Instr][]*ir.Instr)
	latch = make(map[*ir.Instr]*ir.Instr)
	single := func(ins *ir.Instr) bool { return c.uses[ins.ID] == 1 }
	pos := make(map[*ir.Instr]int, len(body))
	for i, ins := range body {
		pos[ins] = i
	}
	// reaches reports whether the producer at index pi may fuse into the
	// consumer at index ci: everything strictly between must be
	// transparent.
	reaches := func(pi, ci int) bool {
		for k := pi + 1; k < ci; k++ {
			if !c.transparent(body[k]) {
				return false
			}
		}
		return true
	}
	for i := 1; i < len(body); i++ {
		ins, prev := body[i], body[i-1]
		switch ins.Op {
		case ir.OpBr:
			cmp, ok := ins.Args[0].(*ir.Instr)
			if !ok || cmp != prev || cmp.Op != ir.OpBin || !cmp.Bin.IsComparison() || !single(cmp) {
				continue
			}
			fuse[ins] = cmp
			// Counted-loop latch: the comparison's left operand is an
			// integer add/sub immediately before it. Strict adjacency is
			// required — the counter is multi-use (the back-edge phi reads
			// it), so no instruction may sit between its old and new
			// position and observe a stale register.
			if i < 2 {
				continue
			}
			step, ok := cmp.Args[0].(*ir.Instr)
			if ok && step == body[i-2] && step.Op == ir.OpBin &&
				(step.Bin == ir.BinAdd || step.Bin == ir.BinSub) &&
				step.Args[0].Type().Elem != ast.Float {
				latch[ins] = step
			}
		case ir.OpJump:
			// Back-edge/accumulator tail: an integer add/sub immediately
			// before the jump folds into it. Adjacency keeps it exact (the
			// result register is still written; nothing sits between).
			if prev.Op == ir.OpBin && (prev.Bin == ir.BinAdd || prev.Bin == ir.BinSub) &&
				prev.Args[0].Type().Elem != ast.Float {
				latch[ins] = prev
			}
		case ir.OpLoad, ir.OpStore:
			view, ok := ins.Args[0].(*ir.Instr)
			if !ok || view.Op != ir.OpView || !single(view) || view.Typ.Dims != 0 {
				continue
			}
			vi, inBlock := pos[view]
			if !inBlock || !reaches(vi, i) {
				continue
			}
			// Walk outward through single-use views in the same block,
			// each reachable through a transparent window. Index chains
			// report every bounds error at the root expression, so all
			// links share one source position — required, since the fused
			// op carries a single Pos slot. A chain of views proven in
			// bounds can never report an error at all, so proven links may
			// span differing positions (the chain then compiles to an
			// unchecked opcode; see emitIns).
			chain := []*ir.Instr{view}
			cur, curIdx := view, vi
			allProven := c.provenView(view)
			for {
				src, ok := cur.Args[0].(*ir.Instr)
				if !ok || src.Op != ir.OpView || !single(src) {
					break
				}
				srcProven := c.provenView(src)
				if src.Pos != cur.Pos && !(allProven && srcProven) {
					break
				}
				si, inB := pos[src]
				if !inB || !reaches(si, curIdx) {
					break
				}
				chain = append(chain, src)
				cur, curIdx = src, si
				allProven = allProven && srcProven
			}
			// Reverse to outermost-first: index emission order.
			for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
				chain[l], chain[r] = chain[r], chain[l]
			}
			chains[ins] = chain
		}
	}
	return fuse, chains, latch
}

func (c *fnCompiler) emit(bb *BBlock, body []*ir.Instr) {
	fuse, chains, latch := c.fusion(body)
	elided := make(map[*ir.Instr]bool, len(fuse)+len(chains)+len(latch))
	for _, producer := range fuse {
		elided[producer] = true
	}
	for _, chain := range chains {
		for _, v := range chain {
			elided[v] = true
		}
	}
	for _, step := range latch {
		elided[step] = true
	}
	bb.Start = int32(len(c.fc.Code))
	for _, ins := range body {
		if elided[ins] || ins.Op == ir.OpParam {
			continue
		}
		if ins.Op == ir.OpGlobal {
			// Global descriptors are fixed after startup allocation: seed
			// the result register once per call instead of reloading it on
			// every pass through the block.
			c.fc.GlobalSeeds = append(c.fc.GlobalSeeds,
				GlobalSeed{Reg: int32(ins.ID), Global: int32(ins.Global.Index)})
			continue
		}
		c.emitIns(ins, fuse[ins], chains[ins], latch[ins])
	}
	bb.End = int32(len(c.fc.Code))
}

func (c *fnCompiler) push(i Ins) {
	c.fc.Code = append(c.fc.Code, i)
	c.fc.Lat = append(c.fc.Lat, 0)
}

// emitExact lowers a block to its exact range: unfused 1:1 bytecode, one
// instruction per IR body instruction (params become nops, and lead the
// range), calls and allocations included, with each instruction's IR
// latency recorded in FuncCode.Lat. execExact replays it with the
// reference engine's exact per-instruction budget/liveness/work
// accounting; under HCPA it replays the block's template in runs cut at
// each call.
func (c *fnCompiler) emitExact(bb *BBlock) {
	c.inExact = true
	defer func() { c.inExact = false }()
	bb.XStart = int32(len(c.fc.Code))
	for _, ins := range bb.IR.Instrs[len(phisOf(bb.IR)):] {
		switch ins.Op {
		case ir.OpParam:
			c.push(Ins{Op: opNop})
		case ir.OpCall:
			c.push(Ins{Op: opCall, Dst: int32(ins.ID), A: c.fidx[ins.Callee],
				B: c.argList(ins.Args), C: int32(len(ins.Args)), Pos: int32(ins.Pos)})
		case ir.OpAllocArray:
			c.push(Ins{Op: opAlloc, Dst: int32(ins.ID), A: int32(ins.Typ.Elem),
				B: c.argList(ins.Args), C: int32(len(ins.Args)), Pos: int32(ins.Pos)})
		default:
			c.emitIns(ins, nil, nil, nil)
		}
		c.fc.Lat[len(c.fc.Lat)-1] = uint32(ins.Latency())
	}
	bb.XEnd = int32(len(c.fc.Code))
}

// argList interns an opCall/opAlloc operand list into FuncCode.IdxRegs
// and returns the slice base.
func (c *fnCompiler) argList(args []ir.Value) int32 {
	base := int32(len(c.fc.IdxRegs))
	for _, a := range args {
		c.fc.IdxRegs = append(c.fc.IdxRegs, c.opnd(a))
	}
	return base
}

// idxList interns a rank-3+ chain's index registers and returns the slice
// base in FuncCode.IdxRegs.
func (c *fnCompiler) idxList(chain []*ir.Instr) int32 {
	base := int32(len(c.fc.IdxRegs))
	for _, v := range chain {
		c.fc.IdxRegs = append(c.fc.IdxRegs, c.opnd(v.Args[1]))
	}
	return base
}

func (c *fnCompiler) emitIns(ins *ir.Instr, fused *ir.Instr, chain []*ir.Instr, latch *ir.Instr) {
	dst := int32(ins.ID)
	pos := int32(ins.Pos)
	switch ins.Op {
	case ir.OpBin:
		isFloat := ins.Args[0].Type().Elem == ast.Float
		a, b := c.opnd(ins.Args[0]), c.opnd(ins.Args[1])
		var op opcode
		switch ins.Bin {
		case ir.BinAdd:
			op = pick(isFloat, opAddF, opAddI)
		case ir.BinSub:
			op = pick(isFloat, opSubF, opSubI)
		case ir.BinMul:
			op = pick(isFloat, opMulF, opMulI)
		case ir.BinDiv:
			op = pick(isFloat, opDivF, opDivI)
			if !isFloat && c.provenDiv(ins) {
				op = opDivIU
			}
		case ir.BinRem:
			op = pick(c.provenDiv(ins), opRemIU, opRemI)
		case ir.BinAnd:
			op = opAndI
		case ir.BinOr:
			op = opOrI
		default: // comparison
			c.push(Ins{Op: pick(isFloat, opCmpF, opCmpI), Dst: dst, A: a, B: b, C: int32(ins.Bin), Pos: pos})
			return
		}
		c.push(Ins{Op: op, Dst: dst, A: a, B: b, Pos: pos})
	case ir.OpNeg:
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opNegF, opNegI), Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpNot:
		c.push(Ins{Op: opNot, Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpConvert:
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opConvIF, opConvFI), Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpGlobal:
		c.push(Ins{Op: opGlobal, Dst: dst, A: int32(ins.Global.Index)})
	case ir.OpView:
		c.push(Ins{Op: pick(c.provenView(ins), opViewU, opView),
			Dst: dst, A: c.opnd(ins.Args[0]), B: c.opnd(ins.Args[1]), Pos: pos})
	case ir.OpLoad:
		isF := ins.Typ.Elem == ast.Float
		// A chain whose every view is proven in bounds compiles to the
		// unchecked form: no level can fault, so no check and no Pos fidelity
		// is needed.
		uc := len(chain) > 0
		for _, v := range chain {
			uc = uc && c.provenView(v)
		}
		switch len(chain) {
		case 0:
			c.push(Ins{Op: pick(isF, opLoadF, opLoadI), Dst: dst, A: c.opnd(ins.Args[0])})
		case 1:
			op := pick(isF, opLdIdxF, opLdIdxI)
			if uc {
				op = pick(isF, opLdIdxFU, opLdIdxIU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]), Pos: int32(chain[0].Pos)})
		case 2:
			op := pick(isF, opLdIdx2F, opLdIdx2I)
			if uc {
				op = pick(isF, opLdIdx2FU, opLdIdx2IU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(chain[1].Args[1]), Pos: int32(chain[0].Pos)})
		default:
			op := pick(isF, opLdIdxNF, opLdIdxNI)
			if uc {
				op = pick(isF, opLdIdxNFU, opLdIdxNIU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.idxList(chain), C: int32(len(chain)),
				Pos: int32(chain[0].Pos)})
		}
	case ir.OpStore:
		uc := len(chain) > 0
		for _, v := range chain {
			uc = uc && c.provenView(v)
		}
		switch len(chain) {
		case 0:
			c.push(Ins{Op: opStore, A: c.opnd(ins.Args[0]), B: c.opnd(ins.Args[1])})
		case 1:
			c.push(Ins{Op: pick(uc, opStIdxU, opStIdx),
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(ins.Args[1]), Pos: int32(chain[0].Pos)})
		case 2:
			c.push(Ins{Op: pick(uc, opStIdx2U, opStIdx2), Dst: c.opnd(ins.Args[1]),
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(chain[1].Args[1]), Pos: int32(chain[0].Pos)})
		default:
			c.push(Ins{Op: pick(uc, opStIdxNU, opStIdxN), Dst: c.opnd(ins.Args[1]),
				A: c.opnd(chain[0].Args[0]), B: c.idxList(chain), C: int32(len(chain)),
				Pos: int32(chain[0].Pos)})
		}
	case ir.OpBuiltin:
		c.emitBuiltin(ins)
	case ir.OpBr:
		if latch != nil {
			// The counter write survives (Dst); the single-use comparison
			// is elided entirely.
			c.push(Ins{Op: pick(latch.Bin == ir.BinSub, opDecCmpBrI, opIncCmpBrI),
				Dst: int32(latch.ID), A: c.opnd(latch.Args[0]), B: c.opnd(latch.Args[1]),
				C: c.opnd(fused.Args[1]), Pos: int32(fused.Bin)})
			return
		}
		if fused != nil {
			isFloat := fused.Args[0].Type().Elem == ast.Float
			c.push(Ins{Op: pick(isFloat, opBrCmpF, opBrCmpI),
				A: c.opnd(fused.Args[0]), B: c.opnd(fused.Args[1]), C: int32(fused.Bin)})
			return
		}
		c.push(Ins{Op: opBr, A: c.opnd(ins.Args[0])})
	case ir.OpJump:
		if latch != nil {
			c.push(Ins{Op: pick(latch.Bin == ir.BinSub, opDecJmpI, opIncJmpI),
				Dst: int32(latch.ID), A: c.opnd(latch.Args[0]), B: c.opnd(latch.Args[1])})
			return
		}
		c.push(Ins{Op: opJump})
	case ir.OpRet:
		if len(ins.Args) > 0 {
			c.push(Ins{Op: opRetVal, A: c.opnd(ins.Args[0])})
			return
		}
		c.push(Ins{Op: opRetVoid})
	default:
		panic(fmt.Sprintf("bytecode: func %s: block %s: unsupported opcode %s", c.f.Name, ins.Block, ins.Op))
	}
}

func (c *fnCompiler) emitBuiltin(ins *ir.Instr) {
	dst := int32(ins.ID)
	pos := int32(ins.Pos)
	argN := func(i int) int32 { return c.opnd(ins.Args[i]) }
	switch ins.Builtin {
	case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos":
		op := map[string]opcode{
			"sqrt": opSqrt, "fabs": opFabs, "floor": opFloor,
			"exp": opExp, "log": opLog, "sin": opSin, "cos": opCos,
		}[ins.Builtin]
		c.push(Ins{Op: op, Dst: dst, A: argN(0)})
	case "pow":
		c.push(Ins{Op: opPow, Dst: dst, A: argN(0), B: argN(1)})
	case "abs":
		c.push(Ins{Op: opAbsI, Dst: dst, A: argN(0)})
	case "min":
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opMinF, opMinI), Dst: dst, A: argN(0), B: argN(1)})
	case "max":
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opMaxF, opMaxI), Dst: dst, A: argN(0), B: argN(1)})
	case "rand":
		c.push(Ins{Op: opRand, Dst: dst})
	case "frand":
		c.push(Ins{Op: opFrand, Dst: dst})
	case "srand":
		c.push(Ins{Op: opSrand, A: argN(0)})
	case "dim":
		c.push(Ins{Op: opDim, Dst: dst, A: argN(0), B: argN(1), Pos: pos})
	case "printstr":
		si := int32(len(c.fc.Strs))
		c.fc.Strs = append(c.fc.Strs, ins.Aux)
		c.push(Ins{Op: opPrintStr, A: si})
	case "printval":
		var op opcode
		switch ins.Args[0].Type().Elem {
		case ast.Float:
			op = opPrintValF
		case ast.Bool:
			op = opPrintValB
		default:
			op = opPrintValI
		}
		c.push(Ins{Op: op, A: argN(0)})
	case "printnl":
		c.push(Ins{Op: opPrintNl})
	default:
		panic(fmt.Sprintf("bytecode: func %s: block %s: unknown builtin %q", c.f.Name, ins.Block, ins.Builtin))
	}
}

func pick(cond bool, a, b opcode) opcode {
	if cond {
		return a
	}
	return b
}
