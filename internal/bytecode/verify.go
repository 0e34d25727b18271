package bytecode

import (
	"fmt"

	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
)

// operand-usage flags for the verifier.
const (
	useDst = 1 << iota
	useA
	useB
	useC
	// useDstSrc marks Dst as a *source* operand (opStIdx2 carries the
	// stored value there), so it may index the constant pool.
	useDstSrc
)

// regUse says which Ins fields index the register file for a given opcode.
// opGlobal's A and opPrintStr's A index other tables and are checked
// separately.
func regUse(op opcode) int {
	switch op {
	case opAddI, opSubI, opMulI, opDivI, opRemI, opAndI, opOrI,
		opDivIU, opRemIU,
		opAddF, opSubF, opMulF, opDivF, opCmpI, opCmpF,
		opPow, opMinI, opMaxI, opMinF, opMaxF, opDim,
		opView, opViewU, opLdIdxI, opLdIdxF, opLdIdxIU, opLdIdxFU,
		opIncJmpI, opDecJmpI:
		return useDst | useA | useB
	case opNegI, opNegF, opNot, opConvIF, opConvFI,
		opLoadI, opLoadF,
		opSqrt, opFabs, opFloor, opExp, opLog, opSin, opCos, opAbsI:
		return useDst | useA
	case opGlobal, opRand, opFrand:
		return useDst
	case opStore, opBrCmpI, opBrCmpF:
		return useA | useB
	case opStIdx, opStIdxU:
		return useA | useB | useC
	case opLdIdx2I, opLdIdx2F, opLdIdx2IU, opLdIdx2FU, opIncCmpBrI, opDecCmpBrI:
		return useDst | useA | useB | useC
	case opStIdx2, opStIdx2U:
		return useDstSrc | useA | useB | useC
	// The N-ary forms' B/C address FuncCode.IdxRegs, checked separately.
	case opLdIdxNI, opLdIdxNF, opLdIdxNIU, opLdIdxNFU:
		return useDst | useA
	case opStIdxN, opStIdxNU:
		return useDstSrc | useA
	case opSrand, opPrintValI, opPrintValF, opPrintValB, opBr, opRetVal:
		return useA
	case opNop, opPrintStr, opPrintNl, opJump, opRetVoid:
		return 0
	// opCall's A is a function index, opAlloc's A an element kind; both
	// argument lists live in FuncCode.IdxRegs, checked separately.
	case opCall, opAlloc:
		return useDst
	}
	return -1 // unknown opcode
}

func isTermOp(op opcode) bool {
	switch op {
	case opBr, opBrCmpI, opBrCmpF, opIncCmpBrI, opDecCmpBrI,
		opIncJmpI, opDecJmpI, opJump, opRetVal, opRetVoid:
		return true
	}
	return false
}

// isMemOp reports whether op loads or stores one heap cell (execFast
// records one address for each).
func isMemOp(op opcode) bool {
	switch op {
	case opLoadI, opLoadF, opStore,
		opLdIdxI, opLdIdxF, opStIdx, opLdIdx2I, opLdIdx2F, opStIdx2, opLdIdxNI, opLdIdxNF, opStIdxN,
		opLdIdxIU, opLdIdxFU, opStIdxU, opLdIdx2IU, opLdIdx2FU, opStIdx2U, opLdIdxNIU, opLdIdxNFU, opStIdxNU:
		return true
	}
	return false
}

// Verify checks a compiled program's structural invariants — everything
// the check-free fast path assumes instead of testing at dispatch time:
// operand indices inside the register file, edge and block indices in
// range, every range ending in its one terminator, templates referencing only
// shadow-register IDs. The krfuzz oracle runs it on every generated
// program; tests run it on every compiled fixture.
func Verify(p *Program) error {
	for _, fc := range p.Funcs() {
		if err := verifyFunc(p, fc); err != nil {
			return fmt.Errorf("bytecode: func %s: %w", fc.F.Name, err)
		}
	}
	return nil
}

func verifyFunc(p *Program, fc *FuncCode) error {
	if int(fc.ConstBase) != fc.F.NumValues() {
		return fmt.Errorf("ConstBase %d != NumValues %d", fc.ConstBase, fc.F.NumValues())
	}
	if int(fc.NumRegs) != int(fc.ConstBase)+len(fc.Consts) {
		return fmt.Errorf("NumRegs %d != ConstBase %d + %d consts", fc.NumRegs, fc.ConstBase, len(fc.Consts))
	}
	if len(fc.Blocks) != len(fc.F.Blocks) {
		return fmt.Errorf("%d compiled blocks for %d IR blocks", len(fc.Blocks), len(fc.F.Blocks))
	}
	if len(fc.Lat) != len(fc.Code) {
		return fmt.Errorf("%d latencies for %d instructions", len(fc.Lat), len(fc.Code))
	}
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		if b.IR != fc.F.Blocks[bi] {
			return fmt.Errorf("block %d: IR pointer mismatch", bi)
		}
		if err := verifyBlock(p, fc, b); err != nil {
			return fmt.Errorf("block %d (%s): %w", bi, b.IR.Name, err)
		}
	}
	for _, gs := range fc.GlobalSeeds {
		if gs.Reg < 0 || gs.Reg >= fc.ConstBase {
			return fmt.Errorf("global seed register %d out of range [0,%d)", gs.Reg, fc.ConstBase)
		}
		if gs.Global < 0 || int(gs.Global) >= len(p.Mod.Globals) {
			return fmt.Errorf("global seed index %d out of range", gs.Global)
		}
	}
	for ei := range fc.Edges {
		e := &fc.Edges[ei]
		if e.Target < 0 || int(e.Target) >= len(fc.Blocks) {
			return fmt.Errorf("edge %d: target %d out of range", ei, e.Target)
		}
		phis := phisOf(fc.Blocks[e.Target].IR)
		if int(e.NPhis) != len(phis) {
			return fmt.Errorf("edge %d: NPhis %d != %d phis at its target", ei, e.NPhis, len(phis))
		}
		if err := verifyEdgeTemplate(fc, e, phis); err != nil {
			return fmt.Errorf("edge %d: %w", ei, err)
		}
		for _, mv := range e.Moves {
			if mv.Dst < 0 || mv.Dst >= fc.ConstBase {
				return fmt.Errorf("edge %d: phi dst %d out of range", ei, mv.Dst)
			}
			if mv.Src < 0 || mv.Src >= fc.NumRegs {
				return fmt.Errorf("edge %d: phi src %d out of range", ei, mv.Src)
			}
		}
	}
	return nil
}

func verifyBlock(p *Program, fc *FuncCode, b *BBlock) error {
	if b.Fused {
		if err := verifyRange(p, fc, b.Start, b.End, false); err != nil {
			return fmt.Errorf("fused range: %w", err)
		}
	} else if b.Start != -1 || b.End != -1 {
		return fmt.Errorf("block without a fused range carries fused bytecode [%d,%d)", b.Start, b.End)
	}
	if err := verifyRange(p, fc, b.XStart, b.XEnd, true); err != nil {
		return fmt.Errorf("exact range: %w", err)
	}
	nEdges := int32(len(fc.Edges))
	switch b.IR.Terminator().Op {
	case ir.OpBr:
		if b.Edge0 < 0 || b.Edge0 >= nEdges || b.Edge1 < 0 || b.Edge1 >= nEdges {
			return fmt.Errorf("branch edges %d/%d out of range (%d)", b.Edge0, b.Edge1, nEdges)
		}
	case ir.OpJump:
		if b.Edge0 < 0 || b.Edge0 >= nEdges {
			return fmt.Errorf("jump edge %d out of range (%d)", b.Edge0, nEdges)
		}
	}
	return verifyBlockTemplate(fc, b)
}

// verifyRange checks one bytecode range of a block: in bounds, every
// instruction well-formed, and a terminator in final position and nowhere
// else — the dispatch loops have no end-of-range check. An exact range
// holds only unfused, fully checked opcodes; a fused range no call or
// allocation.
func verifyRange(p *Program, fc *FuncCode, start, end int32, exact bool) error {
	if start < 0 || end <= start || int(end) > len(fc.Code) {
		return fmt.Errorf("code range [%d,%d) out of bounds (%d)", start, end, len(fc.Code))
	}
	for pc := start; pc < end; pc++ {
		ins := &fc.Code[pc]
		if err := verifyIns(p, fc, ins); err != nil {
			return fmt.Errorf("pc %d (%v): %w", pc, ins.Op, err)
		}
		if isTermOp(ins.Op) != (pc == end-1) {
			return fmt.Errorf("pc %d: %v, want a terminator exactly at the end of the range", pc, ins.Op)
		}
		if !exact {
			if ins.Op == opCall || ins.Op == opAlloc {
				return fmt.Errorf("pc %d: exact-only opcode %v in fused range", pc, ins.Op)
			}
			continue
		}
		switch ins.Op {
		case opBrCmpI, opBrCmpF, opIncCmpBrI, opDecCmpBrI, opIncJmpI, opDecJmpI, opLdIdxI, opLdIdxF, opStIdx,
			opLdIdx2I, opLdIdx2F, opStIdx2, opLdIdxNI, opLdIdxNF, opStIdxN:
			return fmt.Errorf("pc %d: fused opcode %v in exact range", pc, ins.Op)
		case opViewU, opLdIdxIU, opLdIdxFU, opStIdxU, opLdIdx2IU, opLdIdx2FU,
			opStIdx2U, opLdIdxNIU, opLdIdxNFU, opStIdxNU, opDivIU, opRemIU:
			// The exact range is the checked path: an unchecked opcode here
			// could silently skip a reference error.
			return fmt.Errorf("pc %d: unchecked opcode %v in exact range", pc, ins.Op)
		}
	}
	return nil
}

// verifyBlockTemplate checks a block's HCPA template against its bytecode:
// one entry per stepped (non-param) instruction, and StepBlock consumes
// the VM's address buffer entry by entry, so the template must hold one
// memory entry per load/store opcode of the fused range, and in the exact
// range one at the very position of each (an exact run replays the
// template in runs cut at calls).
func verifyBlockTemplate(fc *FuncCode, b *BBlock) error {
	stepped := 0
	for _, ins := range b.IR.Instrs[len(phisOf(b.IR)):] {
		if ins.Op != ir.OpParam {
			stepped++
		}
	}
	if len(b.Tpl) != stepped {
		return fmt.Errorf("template has %d entries for %d stepped instructions", len(b.Tpl), stepped)
	}
	tplMem := 0
	for i := range b.Tpl {
		ti := &b.Tpl[i]
		if err := verifyTplIns(fc, ti); err != nil {
			return fmt.Errorf("template ins %d: %w", i, err)
		}
		switch ti.Kind {
		case kremlib.TplLoad, kremlib.TplLoadReduction:
			tplMem++
			if ti.N != 1 {
				return fmt.Errorf("template ins %d: load folds %d operands, want its address", i, ti.N)
			}
		case kremlib.TplStore:
			tplMem++
		case kremlib.TplPhiReduction:
			return fmt.Errorf("template ins %d: phi entry in a block template", i)
		}
	}
	if b.Fused {
		codeMem := 0
		for pc := b.Start; pc < b.End; pc++ {
			if isMemOp(fc.Code[pc].Op) {
				codeMem++
			}
		}
		if tplMem != codeMem {
			return fmt.Errorf("template has %d memory entries, fused range %d loads/stores", tplMem, codeMem)
		}
	}
	// The exact range: one instruction per body instruction; params lead
	// as nops, then pc maps to entry pc-base.
	if body := len(b.IR.Instrs) - len(phisOf(b.IR)); int(b.XEnd-b.XStart) != body {
		return fmt.Errorf("exact range has %d instructions for a %d-instruction body", b.XEnd-b.XStart, body)
	}
	base := b.XEnd - int32(len(b.Tpl))
	for pc := b.XStart; pc < b.XEnd; pc++ {
		op := fc.Code[pc].Op
		if (op == opNop) != (pc < base) {
			return fmt.Errorf("pc %d: nops must lead an exact range, one per param", pc)
		}
		if pc < base {
			continue
		}
		k := b.Tpl[pc-base].Kind
		isMem := k == kremlib.TplLoad || k == kremlib.TplLoadReduction || k == kremlib.TplStore
		if isMem != isMemOp(op) {
			return fmt.Errorf("pc %d: %v against template entry of kind %d", pc, op, k)
		}
		// execExact finds a call's IR instruction by this 1:1 mapping.
		if irOp := b.IR.Instrs[len(b.IR.Instrs)-int(b.XEnd-pc)].Op; (op == opCall) != (irOp == ir.OpCall) {
			return fmt.Errorf("pc %d: %v against IR %v", pc, op, irOp)
		}
	}
	return nil
}

// verifyEdgeTemplate checks an edge template against the phis at its
// target: one entry per phi, each writing that phi's register and folding
// at most one operand, with no memory side effect.
func verifyEdgeTemplate(fc *FuncCode, e *Edge, phis []*ir.Instr) error {
	if len(e.Tpl) != len(phis) {
		return fmt.Errorf("template has %d entries for %d phis", len(e.Tpl), len(phis))
	}
	for i := range e.Tpl {
		ti := &e.Tpl[i]
		if err := verifyTplIns(fc, ti); err != nil {
			return fmt.Errorf("template ins %d: %w", i, err)
		}
		if ti.Res != int32(phis[i].ID) {
			return fmt.Errorf("template ins %d: result %d is not phi %d", i, ti.Res, phis[i].ID)
		}
		if ti.N > 1 {
			return fmt.Errorf("template ins %d: phi folds %d operands", i, ti.N)
		}
		if ti.Kind != kremlib.TplPlain && ti.Kind != kremlib.TplPhiReduction {
			return fmt.Errorf("template ins %d: phi entry of kind %d", i, ti.Kind)
		}
	}
	return nil
}

// verifyTplIns checks one template entry's registers, kind, and that its
// inline operand fields agree with Args.
func verifyTplIns(fc *FuncCode, ti *kremlib.TplIns) error {
	if ti.Kind > kremlib.TplPrint {
		return fmt.Errorf("unknown kind %d", ti.Kind)
	}
	if ti.Res >= fc.ConstBase {
		return fmt.Errorf("result %d is not a shadow register", ti.Res)
	}
	switch {
	case ti.N > 3:
		return fmt.Errorf("operand count %d", ti.N)
	case ti.N == 3:
		if len(ti.Args) < 3 || ti.Args[0] != ti.A || ti.Args[1] != ti.B {
			return fmt.Errorf("inline operands %d,%d disagree with Args %v", ti.A, ti.B, ti.Args)
		}
	case ti.Args != nil:
		return fmt.Errorf("%d inline operands but Args %v", ti.N, ti.Args)
	}
	var buf [2]int32
	for _, a := range ti.Operands(&buf) {
		if a < 0 || a >= fc.ConstBase {
			return fmt.Errorf("arg %d is not a shadow register", a)
		}
	}
	return nil
}

func verifyIns(p *Program, fc *FuncCode, ins *Ins) error {
	use := regUse(ins.Op)
	if use < 0 {
		return fmt.Errorf("unknown opcode %d", ins.Op)
	}
	check := func(name string, v int32, lim int32) error {
		if v < 0 || v >= lim {
			return fmt.Errorf("%s operand %d out of range [0,%d)", name, v, lim)
		}
		return nil
	}
	if use&useDst != 0 {
		// Results always land in a value slot, never the constant pool.
		if err := check("dst", ins.Dst, fc.ConstBase); err != nil {
			return err
		}
	}
	if use&useDstSrc != 0 {
		if err := check("dst(src)", ins.Dst, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useA != 0 {
		if err := check("a", ins.A, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useB != 0 {
		if err := check("b", ins.B, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useC != 0 {
		if err := check("c", ins.C, fc.NumRegs); err != nil {
			return err
		}
	}
	switch ins.Op {
	case opIncCmpBrI, opDecCmpBrI:
		if !ir.BinKind(ins.Pos).IsComparison() {
			return fmt.Errorf("latch comparison kind %d is not a comparison", ins.Pos)
		}
	case opGlobal:
		if ins.A < 0 || int(ins.A) >= len(p.Mod.Globals) {
			return fmt.Errorf("global index %d out of range", ins.A)
		}
	case opPrintStr:
		if ins.A < 0 || int(ins.A) >= len(fc.Strs) {
			return fmt.Errorf("string index %d out of range", ins.A)
		}
	case opCall, opAlloc:
		if ins.Op == opCall && (ins.A < 0 || int(ins.A) >= len(p.funcs)) {
			return fmt.Errorf("callee index %d out of range", ins.A)
		}
		if ins.Op == opAlloc && ins.C < 1 {
			return fmt.Errorf("allocation with %d dimensions", ins.C)
		}
		if ins.C < 0 || ins.B < 0 || int(ins.B)+int(ins.C) > len(fc.IdxRegs) {
			return fmt.Errorf("arg list [%d,%d+%d) out of range [0,%d)", ins.B, ins.B, ins.C, len(fc.IdxRegs))
		}
		for _, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
			if err := check("arg", r, fc.NumRegs); err != nil {
				return err
			}
		}
	case opLdIdxNI, opLdIdxNF, opStIdxN, opLdIdxNIU, opLdIdxNFU, opStIdxNU:
		if ins.C < 3 || ins.B < 0 || int(ins.B)+int(ins.C) > len(fc.IdxRegs) {
			return fmt.Errorf("index list [%d,%d+%d) out of range [0,%d)", ins.B, ins.B, ins.C, len(fc.IdxRegs))
		}
		for _, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
			if err := check("idx", r, fc.NumRegs); err != nil {
				return err
			}
		}
	}
	return nil
}
