package bytecode

import (
	"math"

	"kremlin/internal/absint"
	"kremlin/internal/ast"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/regions"
)

// Compile lowers a module into flat bytecode. prog and instr are the
// region analysis and instrumentation tables the module was compiled with
// (the same ones the tree engine consults at run time); edges, control
// pushes, and region events are resolved against them once, here. facts,
// when non-nil, supplies the abstract interpreter's proofs: views proven
// in bounds and divisors proven nonzero compile to unchecked opcode
// variants and open fusion windows that faultable instructions would
// otherwise close. A nil facts (-absint=off) compiles fully checked code;
// profiles, plans, and program output are identical either way — only the
// dispatch cost of the proven checks differs.
func Compile(mod *ir.Module, prog *regions.Program, instr *instrument.Module, facts *absint.Facts) *Program {
	p := &Program{Mod: mod, Prog: prog, ByFunc: make(map[*ir.Func]*FuncCode, len(mod.Funcs))}
	fidx := make(map[*ir.Func]int32, len(mod.Funcs))
	for i, f := range mod.Funcs {
		fidx[f] = int32(i)
	}
	for _, f := range mod.Funcs {
		fc := compileFunc(f, prog, instr, fidx, facts)
		p.Funcs = append(p.Funcs, fc)
		p.ByFunc[f] = fc
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
	// the exact fallback path must stay fully checked so faulting programs
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

// pureBuiltins touch only registers (no RNG or IO state); dim can fail,
// but a mid-block runtime error aborts the whole run, which is
// unobservable since errors return a nil Result.
var pureBuiltins = map[string]bool{
	"sqrt": true, "fabs": true, "floor": true, "exp": true, "log": true,
	"sin": true, "cos": true, "pow": true, "abs": true, "min": true,
	"max": true, "dim": true,
}

// knownBuiltins is everything else the engines implement: the RNG and
// print builtins, which chain through the runtime's RNG and IO vectors and
// so keep their blocks on the per-instruction HCPA path. Anything unknown
// makes the block slow-path so the reference error text is produced.
var knownBuiltins = map[string]bool{
	"rand": true, "frand": true, "srand": true,
	"printstr": true, "printval": true, "printnl": true,
}

func isKnownBuiltin(name string) bool { return pureBuiltins[name] || knownBuiltins[name] }

func (c *fnCompiler) compileBlock(bi int32, blk *ir.Block) {
	bb := &c.fc.Blocks[bi]
	bb.IR = blk
	bb.Start, bb.End = -1, -1

	nPhis := 0
	for _, ins := range blk.Instrs {
		if ins.Op != ir.OpPhi {
			break
		}
		nPhis++
	}
	body := blk.Instrs[nPhis:]

	for _, ins := range body {
		bb.NSteps++
		bb.LatSum += ins.Latency()
	}

	// Classify. NeedsSlow blocks take a per-instruction path
	// unconditionally (exact bytecode when representable, the reference
	// walk otherwise). Every other block gets an HCPA template unless it
	// calls a rand or print builtin: loads, stores and returns batch, their
	// shadow-memory traffic and RetVec capture replayed by StepBlock.
	batch := true
	exactOK := true
	for i, ins := range body {
		switch ins.Op {
		case ir.OpParam, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpConvert,
			ir.OpGlobal, ir.OpView, ir.OpLoad, ir.OpStore:
			// template-eligible
		case ir.OpBuiltin:
			if !isKnownBuiltin(ins.Builtin) {
				bb.NeedsSlow = true
				exactOK = false
			}
			if !pureBuiltins[ins.Builtin] {
				batch = false
			}
		case ir.OpBr, ir.OpJump, ir.OpRet:
			if i != len(body)-1 {
				// Mid-block terminator: only the reference walk reproduces
				// the interpreter's continue-past-terminator behavior.
				bb.NeedsSlow = true
				exactOK = false
			}
		case ir.OpCall, ir.OpAllocArray:
			// Calls perturb the step counter mid-block; allocations can
			// fail the heap cap mid-block. Both must check per instruction.
			bb.NeedsSlow = true
		default:
			bb.NeedsSlow = true
			exactOK = false
		}
	}
	if t := blk.Terminator(); t == nil {
		bb.Term = termNone
		// A block that dangles without a terminator but branches mid-block
		// cannot be mapped onto precompiled edges; force the reference walk.
		for _, ins := range body {
			if ins.Op == ir.OpBr || ins.Op == ir.OpJump {
				bb.NeedsSlow = true
				exactOK = false
			}
		}
	} else {
		switch t.Op {
		case ir.OpBr:
			bb.Term = termBr
		case ir.OpJump:
			bb.Term = termJump
		default:
			bb.Term = termRet
		}
	}

	if popAt, ok := c.fi.PopAt[blk]; ok && popAt != nil {
		bb.HasPush = true
		bb.PopAt = popAt
	}

	// Edges (the terminator's targets, in then/else order).
	if t := blk.Terminator(); t != nil {
		switch t.Op {
		case ir.OpBr:
			bb.Edge0 = c.addEdge(blk, t.Targets[0])
			bb.Edge1 = c.addEdge(blk, t.Targets[1])
		case ir.OpJump:
			bb.Edge0 = c.addEdge(blk, t.Targets[0])
		}
	}

	if bb.NeedsSlow {
		if exactOK {
			c.emitExact(bb, body)
		}
		return
	}
	c.emit(bb, body)
	if batch {
		bb.Tpl = c.template(body)
	}
}

// addEdge precompiles the CFG edge blk→to: target index, phi moves and
// Step list, predecessor index, and region events.
func (c *fnCompiler) addEdge(blk, to *ir.Block) int32 {
	e := Edge{Target: c.idxOf[to], PredIdx: -1}
	for i, p := range to.Preds {
		if p == blk {
			e.PredIdx = int32(i)
			break
		}
	}
	for _, ins := range to.Instrs {
		if ins.Op != ir.OpPhi {
			break
		}
		e.NPhis++
		e.Phis = append(e.Phis, ins)
		if e.PredIdx >= 0 && int(e.PredIdx) < len(ins.Args) {
			e.Moves = append(e.Moves, Move{Dst: int32(ins.ID), Src: c.opnd(ins.Args[e.PredIdx])})
		}
	}
	ev := c.fi.EdgeEvents(blk, to)
	e.NExit = int32(len(ev.Exit))
	e.Iterate = ev.Iterate
	e.Enter = ev.Enter
	idx := int32(len(c.fc.Edges))
	c.fc.Edges = append(c.fc.Edges, e)
	return idx
}

// template builds the batched HCPA effect of a block: one entry per
// stepped instruction (params excluded — the interpreter never Steps
// them), argument vectors resolved to register IDs with constants and
// broken (induction/reduction) dependencies dropped at compile time, as
// Step drops them. Loads, stores and returns carry their side effect in
// Kind; memory entries stay in IR order, which is also the order the
// emitted bytecode executes its loads and stores in (fusion elides views,
// never a load or store), so they line up with the VM's address buffer.
func (c *fnCompiler) template(body []*ir.Instr) *kremlib.BlockTemplate {
	tpl := &kremlib.BlockTemplate{}
	for _, ins := range body {
		if ins.Op == ir.OpParam {
			continue
		}
		ti := kremlib.TplIns{Res: -1, Lat: ins.Latency()}
		if ins.HasResult() {
			ti.Res = int32(ins.ID)
		}
		breakArg := ins.BreakArg
		switch ins.Op {
		case ir.OpLoad:
			// Step folds a load's address operand unconditionally.
			breakArg = -1
			ti.Kind = kremlib.TplLoad
			if ins.Reduction {
				ti.Kind = kremlib.TplLoadReduction
			}
		case ir.OpStore:
			ti.Kind = kremlib.TplStore
		case ir.OpRet:
			ti.Kind = kremlib.TplRet
		}
		for i, a := range ins.Args {
			if i == breakArg {
				continue
			}
			if ai, ok := a.(*ir.Instr); ok {
				ti.Args = append(ti.Args, int32(ai.ID))
			}
		}
		tpl.TotalLat += ti.Lat
		tpl.Ins = append(tpl.Ins, ti)
	}
	return tpl
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
		// dim faults; prints are observable output; anything unknown
		// forces the whole block slow-path regardless.
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
	if bb.Term == termNone {
		// Close dangling blocks with a sentinel so the dispatch loop never
		// needs an end-of-block bounds check (terminated blocks end in a
		// terminator opcode already).
		c.push(Ins{Op: opEndBlk})
	}
	bb.End = int32(len(c.fc.Code))
}

func (c *fnCompiler) push(i Ins) {
	c.fc.Code = append(c.fc.Code, i)
	c.fc.Lat = append(c.fc.Lat, 0)
}

// emitExact lowers a NeedsSlow block to unfused 1:1 bytecode — one
// instruction per IR instruction (params become nops), calls and
// allocations included — recording each instruction's IR latency in
// FuncCode.Lat. execExact replays it with the reference engine's exact
// per-instruction budget/liveness/work accounting in non-HCPA modes.
func (c *fnCompiler) emitExact(bb *BBlock, body []*ir.Instr) {
	c.inExact = true
	defer func() { c.inExact = false }()
	bb.Start = int32(len(c.fc.Code))
	for _, ins := range body {
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
	bb.End = int32(len(c.fc.Code))
	bb.Exact = true
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
	}
}

func pick(cond bool, a, b opcode) opcode {
	if cond {
		return a
	}
	return b
}
