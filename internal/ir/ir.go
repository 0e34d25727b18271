// Package ir defines the typed three-address intermediate representation the
// Kr compiler lowers to, analyzes, instruments, and interprets. After the
// mem2reg pass (package irbuild) all scalar locals are in SSA form, which —
// exactly as in the paper's LLVM-based pipeline — removes false (anti and
// output) register dependencies from critical path analysis for free.
package ir

import (
	"fmt"
	"strings"

	"kremlin/internal/ast"
	"kremlin/internal/types"
)

// Op enumerates IR instruction opcodes.
type Op int

// The instruction opcodes.
const (
	OpInvalid Op = iota

	OpParam   // function parameter (pseudo-instruction in the entry block)
	OpBin     // binary arithmetic/comparison/logic
	OpNeg     // arithmetic negation
	OpNot     // logical not
	OpConvert // int<->float conversion
	OpPhi     // SSA phi; Args align with Block.Preds

	OpLoadSlot  // read scalar local slot (pre-SSA only; removed by mem2reg)
	OpStoreSlot // write scalar local slot (pre-SSA only; removed by mem2reg)

	OpAllocArray // allocate a local array; Args are the dimension extents
	OpGlobal     // reference a global (scalar cell or array descriptor)
	OpView       // index an array: Args[0] array, Args[1] index -> sub-view
	OpLoad       // load scalar from a 0-dim view / global scalar cell
	OpStore      // store Args[1] into cell Args[0]

	OpCall    // call a user function
	OpBuiltin // call a builtin (sqrt, rand, print, dim, ...)

	OpBr   // conditional branch: Args[0] cond; Targets[0] then, Targets[1] else
	OpJump // unconditional branch: Targets[0]
	OpRet  // return, optional Args[0]
)

var opNames = [...]string{
	OpInvalid: "invalid", OpParam: "param", OpBin: "bin", OpNeg: "neg", OpNot: "not",
	OpConvert: "convert", OpPhi: "phi", OpLoadSlot: "loadslot", OpStoreSlot: "storeslot",
	OpAllocArray: "allocarray", OpGlobal: "global", OpView: "view", OpLoad: "load",
	OpStore: "store", OpCall: "call", OpBuiltin: "builtin", OpBr: "br", OpJump: "jump", OpRet: "ret",
}

func (o Op) String() string { return opNames[o] }

// BinKind enumerates the binary operators of OpBin.
type BinKind int

// Binary operator kinds.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd // non-short-circuit bool and (short-circuit is lowered to control flow)
	BinOr
)

var binNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (b BinKind) String() string { return binNames[b] }

// IsComparison reports whether b yields a bool from numeric operands.
func (b BinKind) IsComparison() bool { return b >= BinEq && b <= BinGe }

// Value is an IR operand: an instruction result or a constant.
type Value interface {
	Type() types.Type
	Name() string
}

// ConstInt is an integer constant operand.
type ConstInt struct{ V int64 }

// ConstFloat is a floating-point constant operand.
type ConstFloat struct{ V float64 }

// ConstBool is a boolean constant operand.
type ConstBool struct{ V bool }

// Type returns int.
func (c *ConstInt) Type() types.Type { return types.Scalar(ast.Int) }

// Type returns float.
func (c *ConstFloat) Type() types.Type { return types.Scalar(ast.Float) }

// Type returns bool.
func (c *ConstBool) Type() types.Type { return types.Scalar(ast.Bool) }

func (c *ConstInt) Name() string   { return fmt.Sprintf("%d", c.V) }
func (c *ConstFloat) Name() string { return fmt.Sprintf("%g", c.V) }
func (c *ConstBool) Name() string  { return fmt.Sprintf("%t", c.V) }

// Instr is a single IR instruction. A uniform struct (rather than one type
// per opcode) keeps the interpreter dispatch loop simple and fast.
type Instr struct {
	Op      Op
	Bin     BinKind // for OpBin
	Typ     types.Type
	Args    []Value
	Slot    int      // OpLoadSlot/OpStoreSlot: local slot index; OpParam: param index
	Global  *Global  // OpGlobal
	Callee  *Func    // OpCall
	Builtin string   // OpBuiltin
	Targets []*Block // OpBr/OpJump successors
	Aux     string   // OpBuiltin printstr: the literal text
	Block   *Block   // parent block
	ID      int      // dense per-function value numbering
	Pos     int      // source byte offset

	// Analysis annotations consumed by the instrumentation pass/runtime.
	Induction bool // phi of a detected induction variable (dependence broken)
	Reduction bool // arithmetic op of a detected reduction chain (dependence broken)
	// BreakArg is the operand index whose dependency the critical-path
	// runtime must ignore (the induction/reduction "old value"), or -1.
	// The zero value means "no annotation yet"; the analysis pass
	// initializes it for every instruction.
	BreakArg int
}

// Type returns the instruction's result type.
func (i *Instr) Type() types.Type { return i.Typ }

// Name returns the SSA name of the instruction's result, e.g. "%12".
func (i *Instr) Name() string { return fmt.Sprintf("%%%d", i.ID) }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Instr) IsTerminator() bool { return i.Op == OpBr || i.Op == OpJump || i.Op == OpRet }

// HasResult reports whether the instruction produces a value.
func (i *Instr) HasResult() bool {
	switch i.Op {
	case OpStoreSlot, OpStore, OpBr, OpJump, OpRet:
		return false
	case OpBuiltin:
		return i.Builtin != "print" && i.Builtin != "srand"
	case OpCall:
		return i.Callee.Ret != ast.Void
	}
	return true
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
	Func   *Func

	// LoopID is the ID of the innermost loop region whose body contains this
	// block, or -1. Filled in by the regions package.
	LoopID int
}

func (b *Block) String() string { return fmt.Sprintf("b%d.%s", b.ID, b.Name) }

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// CheckShape enforces the block-shape rule every engine assumes: the block
// is non-empty, ends in its one terminator, and its phis form a prefix.
// irbuild only produces such blocks; the KRIB1 validator rejects any
// other, and the bytecode compiler treats one as a compiler bug.
func (b *Block) CheckShape() error {
	if b.Terminator() == nil {
		return fmt.Errorf("block %s does not end in a terminator", b)
	}
	phiPrefix := true
	for i, ins := range b.Instrs {
		if ins.IsTerminator() && i != len(b.Instrs)-1 {
			return fmt.Errorf("block %s: terminator %s mid-block", b, ins.Op)
		}
		if ins.Op == OpPhi {
			if !phiPrefix {
				return fmt.Errorf("block %s: phi after non-phi", b)
			}
		} else {
			phiPrefix = false
		}
	}
	return nil
}

// Global is a module-level variable. Scalars occupy one cell; arrays have
// constant extents fixed at compile time.
type Global struct {
	Name  string
	Elem  ast.BasicKind
	Dims  []int64 // nil for scalars
	Init  Value   // optional scalar initializer (constant)
	Index int
}

// IsArray reports whether g is an array global.
func (g *Global) IsArray() bool { return len(g.Dims) > 0 }

// Func is an IR function.
type Func struct {
	Name      string
	Ret       ast.BasicKind
	Params    []*Instr // OpParam instructions, also present in Entry
	Blocks    []*Block
	NumSlots  int          // scalar+array local slot count before mem2reg
	SlotTypes []types.Type // type of each local slot
	Module    *Module
	Pos       int // source offset of the declaration
	EndPos    int
	nextID    int
	nextBlk   int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh block named name to f.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlk, Name: name, Func: f, LoopID: -1}
	f.nextBlk++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValueID hands out the next dense instruction ID.
func (f *Func) NewValueID() int {
	id := f.nextID
	f.nextID++
	return id
}

// NumValues returns the number of value IDs allocated so far.
func (f *Func) NumValues() int { return f.nextID }

// SetIDBounds restores the fresh-ID counters after deserialization (the
// irbundle decoder assembles Funcs field-by-field), so any later NewBlock
// or NewValueID can never reuse an existing ID.
func (f *Func) SetIDBounds(numValues, numBlocks int) {
	f.nextID = numValues
	f.nextBlk = numBlocks
}

// Module is a compiled Kr program.
type Module struct {
	Name    string
	Funcs   []*Func
	ByName  map[string]*Func
	Globals []*Global
}

// Main returns the program entry function.
func (m *Module) Main() *Func { return m.ByName["main"] }

// AddEdge records a CFG edge from a to b.
func AddEdge(a, b *Block) {
	a.Succs = append(a.Succs, b)
	b.Preds = append(b.Preds, a)
}

// String renders the module as readable IR text, used by tests and debugging.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s %s %v\n", g.Name, g.Elem, g.Dims)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders the function as readable IR text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", p.Name(), p.Typ)
	}
	fmt.Fprintf(&sb, ") %s {\n", f.Ret)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:", b)
		if len(b.Preds) > 0 {
			sb.WriteString(" ; preds=")
			for i, p := range b.Preds {
				if i > 0 {
					sb.WriteString(",")
				}
				sb.WriteString(p.String())
			}
		}
		sb.WriteString("\n")
		for _, ins := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(ins.text())
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func (i *Instr) text() string {
	var sb strings.Builder
	if i.HasResult() {
		fmt.Fprintf(&sb, "%s = ", i.Name())
	}
	sb.WriteString(i.Op.String())
	if i.Op == OpBin {
		fmt.Fprintf(&sb, "(%s)", i.Bin)
	}
	if i.Op == OpGlobal {
		fmt.Fprintf(&sb, " @%s", i.Global.Name)
	}
	if i.Op == OpCall {
		fmt.Fprintf(&sb, " %s", i.Callee.Name)
	}
	if i.Op == OpBuiltin {
		fmt.Fprintf(&sb, " %s", i.Builtin)
	}
	if i.Op == OpLoadSlot || i.Op == OpStoreSlot || i.Op == OpParam {
		fmt.Fprintf(&sb, " slot%d", i.Slot)
	}
	for _, a := range i.Args {
		fmt.Fprintf(&sb, " %s", a.Name())
	}
	for _, t := range i.Targets {
		fmt.Fprintf(&sb, " ->%s", t)
	}
	if i.Induction {
		sb.WriteString(" !induction")
	}
	if i.Reduction {
		sb.WriteString(" !reduction")
	}
	return sb.String()
}

// Latency returns the abstract cost of executing i, in "work units". This is
// the paper's notion of per-operation latency used for both the work counter
// and availability-time updates in critical path analysis.
func (i *Instr) Latency() uint64 {
	switch i.Op {
	case OpParam, OpPhi, OpGlobal, OpJump:
		return 0
	case OpBin:
		switch i.Bin {
		case BinMul:
			if i.Typ.Elem == ast.Float {
				return 3
			}
			return 2
		case BinDiv, BinRem:
			return 8
		default:
			return 1
		}
	case OpNeg, OpNot, OpConvert:
		return 1
	case OpView:
		return 1 // address arithmetic
	case OpLoad, OpLoadSlot:
		return 2
	case OpStore, OpStoreSlot:
		return 1
	case OpAllocArray:
		return 1
	case OpCall:
		return 1
	case OpBuiltin:
		switch i.Builtin {
		case "sqrt", "exp", "log", "sin", "cos", "pow":
			return 12
		case "rand", "frand":
			return 4
		case "print", "srand", "dim":
			return 1
		default:
			return 1
		}
	case OpBr:
		return 1
	case OpRet:
		return 1
	}
	return 1
}
