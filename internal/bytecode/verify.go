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
	case opNop, opPrintStr, opPrintNl, opJump, opRetVoid, opEndBlk:
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
		opIncJmpI, opDecJmpI, opJump, opRetVal, opRetVoid, opEndBlk:
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
// range, terminators only in final position, templates referencing only
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
	if b.Exact && !b.NeedsSlow {
		return fmt.Errorf("Exact block is not NeedsSlow")
	}
	if b.NeedsSlow && !b.Exact {
		if b.Start != -1 || b.End != -1 {
			return fmt.Errorf("func %s: non-exact NeedsSlow block carries bytecode [%d,%d)", fc.F.Name, b.Start, b.End)
		}
	} else {
		if b.Start < 0 || b.End < b.Start || int(b.End) > len(fc.Code) {
			return fmt.Errorf("func %s: code range [%d,%d) out of bounds (%d) [%d insns]", fc.F.Name, b.Start, b.End, len(fc.Code), b.End-b.Start)
		}
		for pc := b.Start; pc < b.End; pc++ {
			ins := &fc.Code[pc]
			if err := verifyIns(p, fc, ins); err != nil {
				return fmt.Errorf("pc %d (%v): %w", pc, ins.Op, err)
			}
			if isTermOp(ins.Op) && pc != b.End-1 {
				return fmt.Errorf("pc %d: terminator %v before end of block", pc, ins.Op)
			}
			if b.Exact {
				switch ins.Op {
				case opBrCmpI, opBrCmpF, opIncCmpBrI, opDecCmpBrI, opIncJmpI, opDecJmpI, opLdIdxI, opLdIdxF, opStIdx,
					opLdIdx2I, opLdIdx2F, opStIdx2, opLdIdxNI, opLdIdxNF, opStIdxN:
					return fmt.Errorf("pc %d: fused opcode %v in exact block", pc, ins.Op)
				case opViewU, opLdIdxIU, opLdIdxFU, opStIdxU, opLdIdx2IU, opLdIdx2FU,
					opStIdx2U, opLdIdxNIU, opLdIdxNFU, opStIdxNU, opDivIU, opRemIU:
					// The exact path is the checked fallback: an unchecked
					// opcode here could silently skip a reference error.
					return fmt.Errorf("pc %d: unchecked opcode %v in exact block", pc, ins.Op)
				}
			} else if ins.Op == opCall || ins.Op == opAlloc {
				return fmt.Errorf("pc %d: exact-only opcode %v in fast block", pc, ins.Op)
			}
		}
		if b.Term != termNone && b.End > b.Start && !isTermOp(fc.Code[b.End-1].Op) {
			return fmt.Errorf("terminated block ends in non-terminator %v", fc.Code[b.End-1].Op)
		}
		if !b.Exact && b.Term == termNone && (b.End == b.Start || fc.Code[b.End-1].Op != opEndBlk) {
			return fmt.Errorf("dangling fast block does not end in endblk")
		}
		if b.Exact {
			for pc := b.Start; pc < b.End; pc++ {
				if fc.Code[pc].Op == opEndBlk {
					return fmt.Errorf("pc %d: endblk in exact block", pc)
				}
			}
		}
	}
	switch b.Term {
	case termBr:
		if b.Edge0 < 0 || int(b.Edge0) >= len(fc.Edges) || b.Edge1 < 0 || int(b.Edge1) >= len(fc.Edges) {
			return fmt.Errorf("branch edges %d/%d out of range (%d)", b.Edge0, b.Edge1, len(fc.Edges))
		}
	case termJump:
		if b.Edge0 < 0 || int(b.Edge0) >= len(fc.Edges) {
			return fmt.Errorf("jump edge %d out of range (%d)", b.Edge0, len(fc.Edges))
		}
	case termNone:
		// The slow path maps branches through the block's final terminator;
		// a dangling block must therefore contain no branch at all.
		for _, ins := range b.IR.Instrs {
			if ins.Op == ir.OpBr || ins.Op == ir.OpJump {
				return fmt.Errorf("dangling block contains mid-block branch")
			}
		}
	}
	return verifyBlockTemplate(fc, b)
}

// verifyBlockTemplate checks a block's HCPA template against its bytecode:
// every block with bytecode carries one entry per stepped (non-param)
// instruction, and StepBlock consumes the VM's address buffer entry by
// entry, so the template must hold one memory entry per load/store opcode
// — for an exact block, at the very position of each (its template is
// replayed in runs cut at calls).
func verifyBlockTemplate(fc *FuncCode, b *BBlock) error {
	if b.NeedsSlow && !b.Exact {
		if b.Tpl != nil {
			return fmt.Errorf("block without bytecode carries an HCPA template")
		}
		return nil
	}
	stepped := 0
	for _, ins := range b.IR.Instrs[len(phisOf(b.IR)):] {
		if ins.Op != ir.OpParam {
			stepped++
		}
	}
	if len(b.Tpl) != stepped {
		return fmt.Errorf("template has %d entries for %d stepped instructions", len(b.Tpl), stepped)
	}
	var tplMem, codeMem int
	for pc := b.Start; pc < b.End; pc++ {
		if isMemOp(fc.Code[pc].Op) {
			codeMem++
		}
	}
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
	if tplMem != codeMem {
		return fmt.Errorf("template has %d memory entries, bytecode %d loads/stores", tplMem, codeMem)
	}
	if !b.Exact {
		return nil
	}
	// Exact blocks: one instruction per body instruction; params lead as
	// nops, then pc maps to entry pc-base.
	if body := len(b.IR.Instrs) - len(phisOf(b.IR)); int(b.End-b.Start) != body {
		return fmt.Errorf("exact block has %d instructions for a %d-instruction body", b.End-b.Start, body)
	}
	base := b.End - int32(len(b.Tpl))
	for pc := b.Start; pc < b.End; pc++ {
		op := fc.Code[pc].Op
		if (op == opNop) != (pc < base) {
			return fmt.Errorf("pc %d: nops must lead an exact block, one per param", pc)
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
		if irOp := b.IR.Instrs[len(b.IR.Instrs)-int(b.End-pc)].Op; (op == opCall) != (irOp == ir.OpCall) {
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
