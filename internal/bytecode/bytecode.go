// Package bytecode is Kremlin's second execution engine: a flat bytecode
// compiler plus dispatch-loop VM for the Kr IR, with block-batched
// instrumentation. The tree-walking interpreter (internal/interp) pays a
// per-IR-instruction price three times over — pointer-chasing dispatch,
// per-instruction budget/liveness checks, and a per-instruction KremLib
// Step call. This engine removes all three on the hot path:
//
//   - IR is lowered once into a contiguous []Ins per function. Operands
//     are resolved to register-file indices at compile time (constants are
//     materialized into the top of the register file at call entry, so an
//     operand fetch is a single slice index, never an interface switch),
//     and the hot compare-branch and index-load/store pairs are fused into
//     superinstructions.
//   - Instruction budget and liveness polling are enforced per basic
//     block: a block with n instructions runs check-free when steps+n
//     stays under the budget and does not cross a poll boundary
//     (limits.LiveCheckInterval); otherwise the block falls back to the
//     exact per-instruction reference path.
//   - HCPA bookkeeping is batched per block: every block without calls,
//     allocations, or rand/print builtins carries a precompiled
//     kremlib.BlockTemplate and issues one StepBlock instead of one Step
//     per instruction. Loads, stores and returns batch too: the fast path
//     records each load/store address in a per-machine buffer, in block
//     order, and StepBlock replays the shadow-memory reads and writes from
//     it. Region boundaries fall on CFG edges, never inside a block.
//
// The fallback ("slow") path is a per-instruction walk of the original IR
// block that mirrors internal/interp statement for statement, so every
// observable — output bytes, step and work counters, the full HCPA
// profile, error text and position, and partial results at budget/cap
// stops — is bit-identical between engines. The krfuzz differential
// oracle enforces this continuously.
package bytecode

import (
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
	// exact fallback path stays fully checked so faulting programs report
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

	// Exact-block ops. Blocks with calls or allocations compile to
	// unfused 1:1 bytecode replayed by execExact with per-instruction
	// accounting. opCall's A is the callee's function index; opAlloc's A
	// is the element kind; both read their C argument registers from
	// FuncCode.IdxRegs[B:B+C].
	opCall
	opAlloc

	// Builtins (specialized; print/rand stay fast-path eligible outside
	// HCPA because they touch no shadow state).
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
	// opEndBlk closes every fast block that dangles without a terminator
	// (the function ends there). With it, every fast block's bytecode ends
	// in an opcode that exits the dispatch loop, so the loop needs no
	// per-instruction end-of-block bounds check. Synthetic: counts no step
	// and no work.
	opEndBlk
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
	opEndBlk: "endblk",
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

// termKind classifies a block's terminator for the dispatch loop.
type termKind uint8

// Terminator kinds.
const (
	termNone termKind = iota // unterminated block: falls off the function
	termBr
	termJump
	termRet
)

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

// BBlock is the compiled form of one basic block.
type BBlock struct {
	IR *ir.Block
	// Start/End delimit the block's instructions in FuncCode.Code
	// (End exclusive). NeedsSlow blocks carry no bytecode (Start==End==-1).
	Start, End int32
	// NSteps counts the block's IR instructions after the phis (body +
	// terminator), i.e. the step-counter increment of one execution.
	NSteps uint32
	// LatSum is the summed ir latency of those instructions — the plain
	// work accrual of one check-free execution.
	LatSum uint64
	// NeedsSlow marks blocks that always take a per-instruction path:
	// calls (the callee perturbs the step counter mid-block) and array
	// allocations (they can fail the heap cap mid-block, and partial
	// results must be exact prefixes). In HCPA mode that path is execSlow,
	// one Step per instruction.
	NeedsSlow bool
	// Exact marks NeedsSlow blocks whose Start/End range holds unfused
	// 1:1 bytecode for execExact (per-instruction budget/liveness/work,
	// register-indexed dispatch). Non-exact NeedsSlow blocks — unknown
	// builtins, degenerate control flow — carry no bytecode and always
	// take the execSlow reference walk, as does HCPA mode (which needs
	// per-IR shadow Steps).
	Exact bool
	// Tpl is the batched HCPA template, covering loads, stores and the
	// return; nil for NeedsSlow blocks and for blocks that call a rand or
	// print builtin (those chain through the runtime's RNG and IO vectors,
	// so they keep one Step per instruction via execSlow).
	Tpl *kremlib.BlockTemplate
	// HasPush/PopAt: the branch pushes a control-dependence entry popped
	// at PopAt (precompiled from the instrumentation tables).
	HasPush bool
	PopAt   *ir.Block
	Term    termKind
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
// shadow Steps it performs, and the region enter/exit/iterate events it
// fires — everything interp recomputes per traversal, resolved once.
type Edge struct {
	Target  int32 // block index in FuncCode.Blocks
	PredIdx int32 // incoming-predecessor index at the target (phi selector)
	NPhis   uint32
	Moves   []Move
	Phis    []*ir.Instr // all phis at the target, in order (HCPA Steps)
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
	// and the argument/dimension register lists of exact-block
	// opCall/opAlloc (all slice it via their B/C operands).
	IdxRegs []int32
	// Lat is the per-pc IR latency, aligned with Code; meaningful only
	// inside exact blocks, where execExact accrues work per instruction.
	Lat []uint32
	// GlobalSeeds lists registers preloaded with global descriptors at
	// call entry. Global descriptors never change after startup
	// allocation, so opGlobal instructions in fast blocks are elided and
	// their result registers seeded once per call instead of rewritten
	// on every loop iteration.
	GlobalSeeds []GlobalSeed
	ConstBase   int32 // == F.NumValues()
	NumRegs     int32
	// Root is the function's region (entered per call in profiled modes).
	Root *regions.Region
}

// Program is a compiled module: one FuncCode per IR function.
type Program struct {
	Mod    *ir.Module
	Prog   *regions.Program
	Funcs  []*FuncCode
	ByFunc map[*ir.Func]*FuncCode
}
