// Package bytecode is Kremlin's second execution engine: a flat bytecode
// compiler plus dispatch-loop VM for the Kr IR, with block-batched
// instrumentation. The tree-walking interpreter (internal/interp) pays a
// per-IR-instruction price three times over — pointer-chasing dispatch,
// per-instruction budget/liveness checks, and a per-instruction KremLib
// Step call. This engine removes all three on the hot path:
//
//   - IR is lowered once into a contiguous []Ins per function, on the
//     function's first call (Program.Func). Operands are resolved to
//     register-file indices at compile time (constants are materialized
//     into the top of the register file at call entry, so an operand fetch
//     is a single slice index, never an interface switch), and the hot
//     compare-branch and index-load/store pairs are fused into
//     superinstructions.
//   - Instruction budget and liveness polling are enforced per basic
//     block: a block with n instructions runs check-free when steps+n
//     stays under the budget and does not cross a poll boundary
//     (limits.LiveCheckInterval); otherwise it runs its exact copy.
//   - HCPA bookkeeping is batched per block: every block carries a
//     precompiled kremlib.BlockTemplate, every fused block a compacted
//     one with its block-local temporaries inlined, and every edge into a
//     block with phis an edge template. A fused block issues one
//     StepBlock for the incoming edge's phis and its compacted body
//     together, instead of one Step per instruction. Loads and stores batch too: the VM records each
//     load/store address in a per-machine buffer, in block order, and
//     StepBlock replays the shadow-memory reads and writes from it. A
//     block run exactly replays its template in runs cut at each call.
//     Region boundaries fall on CFG edges, never inside a block.
//
// Every block compiles to one or two ranges of bytecode. The exact range
// is 1:1 with the block's IR body (params lead as nops) and fully checked;
// execExact runs it with internal/interp's per-instruction step counter,
// budget check, liveness poll and work accrual. Blocks without calls or
// allocations also get a fused range (superinstructions, elided globals,
// opcodes absint proved unchecked) that execFast runs check-free. Blocks
// with calls or allocations, and fused blocks at a budget or liveness-poll
// edge, take the exact range, so every observable — output bytes, step and
// work counters, the full HCPA profile, error text and position, and
// partial results at budget/cap stops — is bit-identical between engines.
// The krfuzz differential oracle enforces the equivalence continuously.
package bytecode

import (
	"sync"

	"kremlin/internal/absint"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/regions"
)

// opcode enumerates VM instructions. Arithmetic is type-specialized at
// compile time (the IR is fully typed), so the VM never re-inspects types.
type opcode uint8

const (
	opNop opcode = iota

	// Integer/bool arithmetic and logic: Dst = A op B.
	opAddI
	opSubI
	opMulI
	opDivI // checks divide-by-zero (Pos)
	opRemI // checks modulo-by-zero (Pos)
	opAndI
	opOrI

	// Float arithmetic.
	opAddF
	opSubF
	opMulF
	opDivF

	// Comparisons: Dst = (A <C-kind> B), C is the ir.BinKind.
	opCmpI
	opCmpF

	// Unary: Dst = op A.
	opNegI
	opNegF
	opNot
	opConvIF // int -> float
	opConvFI // float -> int

	// Arrays and memory.
	opGlobal // Dst = global descriptor A (prebuilt val)
	opView   // Dst = A[B] sub-view (bounds-checked at Pos)
	opLoadI  // Dst = *A (0-dim cell), integer/bool element
	opLoadF  // Dst = *A, float element
	opStore  // *A = B (element kind read from the cell)

	// Superinstructions.
	opBrCmpI // branch on (A <C-kind> B), integer operands
	opBrCmpF // same, float operands
	// Loop-latch superinstructions: Dst = A + B (or A - B), then branch
	// on (Dst <kind> C) — a counted loop's entire back edge (increment,
	// compare, branch) in one dispatch. All integer and fault-free, so
	// the otherwise-unused Pos slot carries the comparison kind.
	opIncCmpBrI
	opDecCmpBrI
	// Jump-latch superinstructions: Dst = A + B (or A - B), then jump to
	// Edge0 — the common back-edge/accumulator tail "i = i + 1; jump"
	// in one dispatch. Integer and fault-free.
	opIncJmpI
	opDecJmpI
	opLdIdxI // Dst = A[B], fused 1-D view+load, integer/bool element
	opLdIdxF // Dst = A[B], float element
	opStIdx  // A[B] = C, fused 1-D view+store
	// Rank-2 chains (the NAS kernels' hot shape): both views plus the
	// load/store collapse into one dispatch. A is the rank-2 root array,
	// B/C the two indices; bounds are checked level by level in the
	// reference engine's order. For opStIdx2 the stored value rides in
	// Dst (a source operand there, never written).
	opLdIdx2I // Dst = A[B][C], integer/bool element
	opLdIdx2F // Dst = A[B][C], float element
	opStIdx2  // A[B][C] = Dst
	// Rank-3+ chains: the C index registers at FuncCode.IdxRegs[B:B+C]
	// resolve one level each against the rank-C array in A, Horner-style,
	// with the same level-by-level bounds checks. Dst is the result (loads)
	// or the stored value (opStIdxN, a source operand there).
	opLdIdxNI
	opLdIdxNF
	opStIdxN

	// Unchecked variants. The compiler emits these only when the abstract
	// interpreter (internal/absint) proved the access can never fault on
	// any execution reaching it: every view level's index is within its
	// dimension (which implies the operand has enough rank), or the
	// divisor is provably nonzero. The VM skips the corresponding checks
	// entirely. Because fused chains of proven views cannot fault, the
	// unchecked chain forms are additionally allowed to span views with
	// differing source positions (checked chains require a shared Pos so
	// one slot serves every error). emitExact never produces these: the
	// exact range stays fully checked so faulting programs report
	// the reference error at the reference position.
	opViewU    // Dst = A[B] sub-view, no rank/bounds check
	opLdIdxIU  // Dst = A[B], proven 1-D load, integer/bool element
	opLdIdxFU  // Dst = A[B], float element
	opStIdxU   // A[B] = C, proven 1-D store
	opLdIdx2IU // Dst = A[B][C], proven rank-2 load
	opLdIdx2FU
	opStIdx2U // A[B][C] = Dst
	opLdIdxNIU
	opLdIdxNFU
	opStIdxNU
	opDivIU // Dst = A / B, divisor proven nonzero
	opRemIU // Dst = A % B, divisor proven nonzero

	// Exact-only ops: blocks with calls or allocations have only an exact
	// range, run by execExact with per-instruction accounting. opCall's A
	// is the callee's function index; opAlloc's A is the element kind;
	// both read their C argument registers from FuncCode.IdxRegs[B:B+C].
	opCall
	opAlloc

	// Builtins (specialized; all fast-path eligible — under HCPA the
	// print and rand templates chain through the runtime's IO and RNG
	// vectors).
	opSqrt
	opFabs
	opFloor
	opExp
	opLog
	opSin
	opCos
	opPow
	opAbsI
	opMinI
	opMaxI
	opMinF
	opMaxF
	opRand
	opFrand
	opSrand
	opDim // Dst = dim(A, B), bounds-checked at Pos
	opPrintStr
	opPrintValI
	opPrintValF
	opPrintValB
	opPrintNl

	// Terminators.
	opBr      // branch on A != 0 to Edge0 else Edge1
	opJump    // to Edge0
	opRetVal  // return A
	opRetVoid // return
)

var opNames = [...]string{
	opNop:  "nop",
	opAddI: "add.i", opSubI: "sub.i", opMulI: "mul.i", opDivI: "div.i",
	opRemI: "rem.i", opAndI: "and.i", opOrI: "or.i",
	opAddF: "add.f", opSubF: "sub.f", opMulF: "mul.f", opDivF: "div.f",
	opCmpI: "cmp.i", opCmpF: "cmp.f",
	opNegI: "neg.i", opNegF: "neg.f", opNot: "not",
	opConvIF: "conv.if", opConvFI: "conv.fi",
	opGlobal: "global", opView: "view", opLoadI: "load.i", opLoadF: "load.f",
	opStore:  "store",
	opBrCmpI: "br.cmp.i", opBrCmpF: "br.cmp.f",
	opIncCmpBrI: "inc.cmp.br.i", opDecCmpBrI: "dec.cmp.br.i",
	opIncJmpI: "inc.jmp.i", opDecJmpI: "dec.jmp.i",
	opLdIdxI: "ldidx.i", opLdIdxF: "ldidx.f", opStIdx: "stidx",
	opLdIdx2I: "ldidx2.i", opLdIdx2F: "ldidx2.f", opStIdx2: "stidx2",
	opLdIdxNI: "ldidxn.i", opLdIdxNF: "ldidxn.f", opStIdxN: "stidxn",
	opViewU: "view.u", opLdIdxIU: "ldidx.i.u", opLdIdxFU: "ldidx.f.u",
	opStIdxU: "stidx.u", opLdIdx2IU: "ldidx2.i.u", opLdIdx2FU: "ldidx2.f.u",
	opStIdx2U: "stidx2.u", opLdIdxNIU: "ldidxn.i.u", opLdIdxNFU: "ldidxn.f.u",
	opStIdxNU: "stidxn.u", opDivIU: "div.i.u", opRemIU: "rem.i.u",
	opCall: "call", opAlloc: "alloc",
	opSqrt: "sqrt", opFabs: "fabs", opFloor: "floor", opExp: "exp",
	opLog: "log", opSin: "sin", opCos: "cos", opPow: "pow",
	opAbsI: "abs.i", opMinI: "min.i", opMaxI: "max.i", opMinF: "min.f", opMaxF: "max.f",
	opRand: "rand", opFrand: "frand", opSrand: "srand", opDim: "dim",
	opPrintStr: "printstr", opPrintValI: "printval.i", opPrintValF: "printval.f",
	opPrintValB: "printval.b", opPrintNl: "printnl",
	opBr: "br", opJump: "jump", opRetVal: "ret", opRetVoid: "ret.void",
}

func (o opcode) String() string { return opNames[o] }

// Ins is one flat VM instruction. Operands A/B/C and Dst index the call's
// register file; the constant pool occupies indexes [ConstBase, NumRegs)
// of that file, so constant operands need no tag bit or branch. Pos is the
// source byte offset used for runtime errors.
type Ins struct {
	Op      opcode
	Dst     int32
	A, B, C int32
	Pos     int32
}

// arr is a (possibly partial) view into the simulated heap; identical in
// meaning to the reference interpreter's array value, but pointer-free
// and packed to 16 bytes (so val is exactly 32): the dimension vector
// lives in the machine's dims arena at [doff, doff+rank), watermark-freed
// with the heap at call exit. A pointer-free register file needs no GC
// write barriers on the clears, copies, and phi moves of the dispatch hot
// path, and pooled register files are never scanned.
type arr struct {
	base uint64
	doff int32
	rank int16
	elem uint8 // ast.BasicKind
}

// val is a VM runtime value (I doubles as bool storage, exactly as in the
// reference interpreter).
type val struct {
	i int64
	f float64
	a arr
}

// BBlock is the compiled form of one basic block. Every block ends in its
// one terminator (ir.Block.CheckShape), so both of its bytecode ranges end
// in an opcode that leaves the dispatch loop.
type BBlock struct {
	IR *ir.Block
	// Start/End delimit the block's fused bytecode in FuncCode.Code (End
	// exclusive); -1 when Fused is false.
	Start, End int32
	// XStart/XEnd delimit the block's exact bytecode: one instruction per
	// body instruction, params first as nops, every check kept, with each
	// instruction's IR latency in FuncCode.Lat.
	XStart, XEnd int32
	// NSteps counts the block's IR instructions after the phis (body +
	// terminator), i.e. the step-counter increment of one execution.
	NSteps uint32
	// LatSum is the summed ir latency of those instructions — the plain
	// work accrual of one check-free execution.
	LatSum uint64
	// Fused marks blocks with a fused range. Blocks with calls (the callee
	// perturbs the step counter mid-block) or array allocations (they can
	// fail the heap cap mid-block, and partial results must be exact
	// prefixes) have none and always run their exact range.
	Fused bool
	// Tpl is the block's plain HCPA template: one entry per body
	// instruction except params, loads, stores, the return and rand/print
	// builtins included. An exact run replays it in runs cut at each call
	// (the call's own entry closes its run, so it lands before the callee
	// runs); a fused run replays it whole after execFast, fused with the
	// incoming edge's phis, when the runtime traces dependences.
	Tpl kremlib.BlockTemplate
	// Compact is a fused block's compacted template (kremlib.Compactor):
	// block-local temporaries inlined into their consumers and the jump
	// dropped. The fused path replays it, unless the runtime traces
	// dependences (the tracer reads every operand); exact runs and edges
	// replay plain templates. Nil for blocks without a fused range.
	Compact kremlib.BlockTemplate
	// HasPush/PopAt: the branch pushes a control-dependence entry popped
	// at PopAt (precompiled from the instrumentation tables).
	HasPush bool
	PopAt   *ir.Block
	// Edge0/Edge1 index FuncCode.Edges: the taken/else successor edges.
	Edge0, Edge1 int32
}

// Move copies operand Src (register-file index) to phi register Dst on an
// edge. The moves of one edge are a parallel copy: sources are gathered
// against the pre-state before any destination is written.
type Move struct {
	Dst, Src int32
}

// Edge is one precompiled CFG edge: where it lands, the phi moves and
// shadow updates it performs, and the region enter/exit/iterate events it
// fires — everything interp recomputes per traversal, resolved once.
type Edge struct {
	Target  int32 // block index in FuncCode.Blocks
	PredIdx int32 // incoming-predecessor index at the target (phi selector)
	NPhis   uint32
	Moves   []Move
	// Tpl is the edge template: one entry per phi at the target, in order,
	// each the phi's Step with this edge's operand (nil when the target
	// has no phis). The VM replays it in the target block's StepBlock, so
	// phis and body share one control baseline; when the target is not
	// batched it is replayed alone before the body.
	Tpl kremlib.BlockTemplate
	// Region events (mirrors regions.EdgeEvents with Exit flattened to a
	// count — the interpreter only ranges over it).
	NExit   int32
	Iterate *regions.Region
	Enter   []*regions.Region
}

// GlobalSeed records a register that is preloaded with the descriptor of
// module global Global at call entry (see FuncCode.GlobalSeeds).
type GlobalSeed struct {
	Reg    int32
	Global int32
}

// FuncCode is one compiled function.
type FuncCode struct {
	F      *ir.Func
	Blocks []BBlock
	Code   []Ins
	Edges  []Edge
	// Consts is the constant pool, materialized into registers
	// [ConstBase, NumRegs) at call entry.
	Consts []val
	Strs   []string // printstr literals
	// IdxRegs holds the index-register lists of rank-3+ fused accesses
	// and the argument/dimension register lists of exact-range
	// opCall/opAlloc (all slice it via their B/C operands).
	IdxRegs []int32
	// Lat is the per-pc IR latency, aligned with Code; meaningful only
	// inside exact ranges, where execExact accrues work per instruction.
	Lat []uint32
	// GlobalSeeds lists registers preloaded with global descriptors at
	// call entry. Global descriptors never change after startup
	// allocation, so opGlobal instructions in fused ranges are elided and
	// their result registers seeded once per call instead of rewritten
	// on every loop iteration.
	GlobalSeeds []GlobalSeed
	ConstBase   int32 // == F.NumValues()
	NumRegs     int32
	// Root is the function's region (entered per call in profiled modes).
	Root *regions.Region
}

// Program is a compiled module: one FuncCode per IR function, compiled on
// first use (Func). A run compiles only the functions it executes, so an
// incremental re-profile that replays nearly every call from its cache
// does not pay to compile the whole module.
type Program struct {
	Mod   *ir.Module
	Prog  *regions.Program
	funcs []lazyFunc
	index map[*ir.Func]int32 // function -> Mod.Funcs index (opCall's A)
	instr *instrument.Module
	facts *absint.Facts
}

type lazyFunc struct {
	once sync.Once
	fc   *FuncCode
}

// Func returns function i of Mod.Funcs compiled, compiling it on first
// use. It is safe for concurrent use (the serve daemon's concurrent jobs
// share one Program).
func (p *Program) Func(i int32) *FuncCode {
	lf := &p.funcs[i]
	lf.once.Do(func() { lf.fc = compileFunc(p.Mod.Funcs[i], p.Prog, p.instr, p.index, p.facts) })
	return lf.fc
}

// Funcs compiles every function and returns them in module order.
func (p *Program) Funcs() []*FuncCode {
	fcs := make([]*FuncCode, len(p.funcs))
	for i := range p.funcs {
		fcs[i] = p.Func(int32(i))
	}
	return fcs
}
