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

// isStoreOp reports whether a memory opcode (isMemOp) stores.
func isStoreOp(op opcode) bool {
	switch op {
	case opStore, opStIdx, opStIdx2, opStIdxN, opStIdxU, opStIdx2U, opStIdxNU:
		return true
	}
	return false
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
	if err := verifyCompact(fc); err != nil {
		return err
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
	k := 0
	for _, ins := range b.IR.Instrs[len(phisOf(b.IR)):] {
		if ins.Op == ir.OpParam {
			continue
		}
		// execExact adds a cut run's work from its entries' latencies.
		if lat := ins.Latency(); uint64(b.Tpl[k].Lat) != lat {
			return fmt.Errorf("template ins %d: latency %d, instruction's %d", k, b.Tpl[k].Lat, lat)
		}
		k++
	}
	for i := range b.Tpl {
		ti := &b.Tpl[i]
		if err := verifyTplIns(fc, ti, true); err != nil {
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
		if err := verifyTplIns(fc, ti, true); err != nil {
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

// verifyTplIns checks one template entry's registers, kind, offsets, and
// that its inline operand fields agree with Args. Every offset is at most
// Base, so an operand that fails its tag check — which the replay skips —
// could never have raised the result; a plain entry's offsets all equal
// its Lat.
func verifyTplIns(fc *FuncCode, ti *kremlib.TplIns, plain bool) error {
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
			return fmt.Errorf("inline operands %v,%v disagree with Args %v", ti.A, ti.B, ti.Args)
		}
	case ti.Args != nil:
		return fmt.Errorf("%d inline operands but Args %v", ti.N, ti.Args)
	}
	if ti.Lat > ti.Base || plain && ti.Base != ti.Lat {
		return fmt.Errorf("base offset %d against latency %d", ti.Base, ti.Lat)
	}
	var buf [2]kremlib.TplOp
	for _, op := range ti.Operands(&buf) {
		if op.Reg < 0 || op.Reg >= fc.ConstBase {
			return fmt.Errorf("arg %d is not a shadow register", op.Reg)
		}
		if op.Off > ti.Base || plain && op.Off != ti.Lat {
			return fmt.Errorf("arg %d: offset %d against base offset %d and latency %d", op.Reg, op.Off, ti.Base, ti.Lat)
		}
	}
	return nil
}

// verifyCompact checks every fused block's compacted template against its
// block and plain template, and that no other code reads a register a
// compacted template leaves unwritten:
//   - every entry is well-formed, with each root offset at most the
//     entry's base offset (verifyTplIns);
//   - every root is live into the block — a phi, a param or another
//     block's value — or written by an earlier entry, so no root is an
//     inlined temporary's stale register;
//   - its effect entries (loads, stores, returns, rand, print) are the
//     plain template's, in order, and its loads and stores follow the
//     fused range's, which the replay's address buffer relies on;
//   - the terminator's entry is last whenever the block pushes a control
//     entry (its vector is PushBlockCtrl's brVec);
//   - a body value the template does not write is used only inside its
//     block, by no phi, and folded by at least one of those uses.
func verifyCompact(fc *FuncCode) error {
	n := fc.F.NumValues()
	// home[v] is 1 + the index of the block whose plain template writes v
	// (verified against the block's body); wrote[v] is 1 + the index of
	// the block whose compacted template writes v.
	home := make([]int32, n)
	wrote := make([]int32, n)
	for bi := range fc.Blocks {
		for _, ti := range fc.Blocks[bi].Tpl {
			if ti.Res >= 0 {
				home[ti.Res] = int32(bi) + 1
			}
		}
	}
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		if !b.Fused {
			if b.Compact != nil {
				return fmt.Errorf("block %d (%s): compacted template without a fused range", bi, b.IR.Name)
			}
			continue
		}
		if err := verifyCompactBlock(fc, b, int32(bi)+1, home, wrote); err != nil {
			return fmt.Errorf("block %d (%s): compacted template: %w", bi, b.IR.Name, err)
		}
	}
	// folded[v]: some use in v's own block folds it.
	folded := make([]bool, n)
	for bi := range fc.Blocks {
		me := int32(bi) + 1
		for _, ins := range fc.Blocks[bi].IR.Instrs {
			for i, a := range ins.Args {
				ai, ok := a.(*ir.Instr)
				if !ok || ai.ID >= n {
					continue
				}
				h := home[ai.ID]
				if h == 0 || !fc.Blocks[h-1].Fused || wrote[ai.ID] == h {
					continue
				}
				if h != me || ins.Op == ir.OpPhi {
					return fmt.Errorf("block %d (%s): reads value %d, which block %d's compacted template inlines",
						bi, fc.Blocks[bi].IR.Name, ai.ID, h-1)
				}
				folded[ai.ID] = folded[ai.ID] || kremlib.Folds(ins, i)
			}
		}
	}
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		if !b.Fused {
			continue
		}
		for _, ti := range b.Tpl {
			if ti.Res >= 0 && wrote[ti.Res] != home[ti.Res] && !folded[ti.Res] {
				return fmt.Errorf("block %d (%s): compacted template drops value %d, which no use folds", bi, b.IR.Name, ti.Res)
			}
		}
	}
	return nil
}

// verifyCompactBlock checks one fused block's compacted template; me is
// 1 + the block's index.
func verifyCompactBlock(fc *FuncCode, b *BBlock, me int32, home, wrote []int32) error {
	var plainFx []*kremlib.TplIns
	for i := range b.Tpl {
		if b.Tpl[i].Kind != kremlib.TplPlain {
			plainFx = append(plainFx, &b.Tpl[i])
		}
	}
	var stores []bool // the fused range's loads (false) and stores (true), in order
	for pc := b.Start; pc < b.End; pc++ {
		if op := fc.Code[pc].Op; isMemOp(op) {
			stores = append(stores, isStoreOp(op))
		}
	}
	fx, mem := 0, 0
	for i := range b.Compact {
		ti := &b.Compact[i]
		if err := verifyTplIns(fc, ti, false); err != nil {
			return fmt.Errorf("ins %d: %w", i, err)
		}
		var buf [2]kremlib.TplOp
		for _, op := range ti.Operands(&buf) {
			if home[op.Reg] == me && wrote[op.Reg] != me {
				return fmt.Errorf("ins %d: root %d is neither live into the block nor written before", i, op.Reg)
			}
		}
		if ti.Res >= 0 {
			if home[ti.Res] != me || wrote[ti.Res] == me {
				return fmt.Errorf("ins %d: writes %d, not a value of this block written once", i, ti.Res)
			}
			wrote[ti.Res] = me
		}
		switch ti.Kind {
		case kremlib.TplPlain:
			continue
		case kremlib.TplPhiReduction:
			return fmt.Errorf("ins %d: phi entry in a block template", i)
		case kremlib.TplLoad, kremlib.TplLoadReduction, kremlib.TplStore:
			if mem >= len(stores) || stores[mem] != (ti.Kind == kremlib.TplStore) {
				return fmt.Errorf("ins %d: memory entry %d does not match the fused range's loads and stores", i, mem)
			}
			mem++
		}
		if fx >= len(plainFx) || plainFx[fx].Kind != ti.Kind || plainFx[fx].Res != ti.Res {
			return fmt.Errorf("ins %d: effect entry %d (kind %d, result %d) is not the plain template's", i, fx, ti.Kind, ti.Res)
		}
		fx++
	}
	if fx != len(plainFx) || mem != len(stores) {
		return fmt.Errorf("%d effect and %d memory entries, want %d and %d", fx, mem, len(plainFx), len(stores))
	}
	if b.HasPush {
		if n := len(b.Compact); n == 0 || b.Compact[n-1].Kind != kremlib.TplPlain || b.Compact[n-1].Res != -1 {
			return fmt.Errorf("the branch's entry is not last")
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
