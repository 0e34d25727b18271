// Package analysis detects induction and reduction variables, the
// "easy-to-break" dependencies of the paper (§4.1). Kremlin breaks these
// statically-identified dependencies with a special shadow-memory update
// rule that ignores the dependency on the variable's old value; this
// package computes the annotations that rule consumes.
package analysis

import (
	"kremlin/internal/ast"
	"kremlin/internal/cfg"
	"kremlin/internal/ir"
)

// Stats summarizes what the pass found, for reporting and tests.
type Stats struct {
	InductionPhis    int
	ReductionPhis    int
	MemoryReductions int
}

// Run annotates every function in m. It must run after mem2reg.
func Run(m *ir.Module) Stats {
	var st Stats
	for _, f := range m.Funcs {
		st.Add(RunFunc(f))
	}
	return st
}

// Add adds o's counts to s.
func (s *Stats) Add(o Stats) {
	s.InductionPhis += o.InductionPhis
	s.ReductionPhis += o.ReductionPhis
	s.MemoryReductions += o.MemoryReductions
}

// Init resets the dependence-breaking annotations of every instruction
// without performing detection — profiling an Init-only module measures
// CPA with induction/reduction dependencies left intact (the paper's §2.4
// ablation of what breaks without this analysis).
func Init(m *ir.Module) {
	for _, f := range m.Funcs {
		initFunc(f)
	}
}

func initFunc(f *ir.Func) {
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			ins.BreakArg = -1
			ins.Induction = false
			ins.Reduction = false
		}
	}
}

// RunFunc annotates one function and returns what it found there.
func RunFunc(f *ir.Func) Stats {
	var st Stats
	initFunc(f)
	g := cfg.New(f)
	idom := g.Dominators()
	loops := g.Loops(idom)
	if len(loops) == 0 {
		return st
	}

	// Uses index: for each instruction, where is it used?
	uses := make(map[*ir.Instr][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			for _, a := range ins.Args {
				if ai, ok := a.(*ir.Instr); ok {
					uses[ai] = append(uses[ai], ins)
				}
			}
		}
	}

	for _, l := range loops {
		for _, ins := range l.Header.Instrs {
			if ins.Op != ir.OpPhi {
				continue
			}
			st.Add(classifyPhi(f, l, ins, uses))
		}
		st.MemoryReductions += memoryReductions(l, uses)
	}
	return st
}

// classifyPhi decides whether a header phi is an induction or reduction
// variable of loop l and annotates the update instruction.
func classifyPhi(f *ir.Func, l *cfg.Loop, phi *ir.Instr, uses map[*ir.Instr][]*ir.Instr) Stats {
	var st Stats
	// Find the value flowing in along back edges.
	var backVal ir.Value
	nBack := 0
	for i, pred := range phi.Block.Preds {
		if l.Contains(pred) {
			backVal = phi.Args[i]
			nBack++
		}
	}
	if nBack != 1 {
		return st
	}
	upd, ok := backVal.(*ir.Instr)
	if !ok || upd.Op != ir.OpBin || !l.Contains(upd.Block) {
		return st
	}
	// Which operand is the carried value? Accept a direct phi operand.
	carried := -1
	for i, a := range upd.Args {
		if a == phi {
			carried = i
		}
	}

	if carried >= 0 {
		switch upd.Bin {
		case ir.BinAdd, ir.BinSub:
			if phi.Typ.Elem == ast.Int && isLoopInvariant(l, upd.Args[1-carried]) {
				// Basic induction variable: i = i + c.
				phi.Induction = true
				upd.Induction = true
				upd.BreakArg = carried
				st.InductionPhis++
				return st
			}
		}
	}

	// Reduction: acc = acc ⊕ x₁ ⊕ x₂ ... — the carried value may sit at
	// the bottom of an associative chain of same-family ops
	// ((acc + a) + b). Chase the chain for the op that consumes the phi.
	holder, hArg := chaseCarried(l, upd, phi, uses)
	if holder == nil {
		return st
	}
	// The accumulator must have no other in-loop use (partial sums escaping
	// would make order observable).
	for _, u := range uses[phi] {
		if u != holder && l.Contains(u.Block) {
			return st
		}
	}
	for _, u := range uses[upd] {
		if u != phi && l.Contains(u.Block) {
			return st
		}
	}
	phi.Reduction = true
	holder.Reduction = true
	holder.BreakArg = hArg
	st.ReductionPhis++
	return st
}

// reductionFamily returns whether chains of this operator may be broken
// (+ and - form one associative family; * another; mixing them is not
// order-safe, nor is mixing with anything else).
func reductionFamily(b ir.BinKind) int {
	switch b {
	case ir.BinAdd, ir.BinSub:
		return 1
	case ir.BinMul:
		return 2
	}
	return 0
}

// chaseCarried walks an associative chain of single-use ops of one family
// from top down and returns the op (and operand index) that directly
// consumes carried. Returns nil if carried is not reachable that way.
func chaseCarried(l *cfg.Loop, top *ir.Instr, carried ir.Value, uses map[*ir.Instr][]*ir.Instr) (*ir.Instr, int) {
	fam := reductionFamily(top.Bin)
	if fam == 0 {
		return nil, -1
	}
	cur := top
	for depth := 0; depth < 8; depth++ {
		for i, a := range cur.Args {
			if a == carried {
				if cur.Bin == ir.BinSub && i != 0 {
					return nil, -1 // x - acc: order matters
				}
				return cur, i
			}
		}
		// Descend into a same-family, single-use operand computed in-loop.
		var next *ir.Instr
		for _, a := range cur.Args {
			ai, ok := a.(*ir.Instr)
			if !ok || ai.Op != ir.OpBin || reductionFamily(ai.Bin) != fam || !l.Contains(ai.Block) {
				continue
			}
			if len(uses[ai]) != 1 {
				continue
			}
			if next != nil {
				return nil, -1 // ambiguous: both operands are chains
			}
			next = ai
		}
		if next == nil {
			return nil, -1
		}
		// Subtraction only breaks safely when the accumulator sits on the
		// left spine (a - acc is not a reduction of acc).
		if fam == 1 && cur.Bin == ir.BinSub && cur.Args[0] != ir.Value(next) {
			return nil, -1
		}
		cur = next
	}
	return nil, -1
}

// isLoopInvariant reports whether v is constant or defined outside l.
func isLoopInvariant(l *cfg.Loop, v ir.Value) bool {
	ins, ok := v.(*ir.Instr)
	if !ok {
		return true // constants
	}
	return !l.Contains(ins.Block)
}

// memoryReductions finds memory reduction patterns inside l:
//
//	store cell, (load cell') op x
//
// where cell and cell' are provably the same location — either the same
// scalar global, or literally the same cell-view instruction, which is
// what compound assignments (`a[i] += x`, including histogram updates with
// a computed index) lower to. The op's dependency on the load is broken.
func memoryReductions(l *cfg.Loop, uses map[*ir.Instr][]*ir.Instr) int {
	n := 0
	for _, b := range l.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpStore || ins.Reduction {
				continue
			}
			cell, ok := ins.Args[0].(*ir.Instr)
			if !ok {
				continue
			}
			op, ok := ins.Args[1].(*ir.Instr)
			if !ok || op.Op != ir.OpBin || reductionFamily(op.Bin) == 0 {
				continue
			}
			sameCell := func(ld *ir.Instr) bool {
				src, ok := ld.Args[0].(*ir.Instr)
				if !ok {
					return false
				}
				if src == cell { // compound assignment: shared cell view
					return true
				}
				return src.Op == ir.OpGlobal && cell.Op == ir.OpGlobal &&
					src.Global == cell.Global && !src.Global.IsArray()
			}
			if holder, i := chaseLoad(l, op, sameCell, uses); holder != nil {
				holder.Reduction = true
				holder.BreakArg = i
				ins.Reduction = true
				// Mark the accumulator load too: its read of the cell is the
				// broken old-value dependence, which the dependence tracer
				// (kremlib) and the static checker (depcheck) must both skip.
				if ld, ok := holder.Args[i].(*ir.Instr); ok && ld.Op == ir.OpLoad && l.Contains(ld.Block) {
					ld.Reduction = true
				}
				n++
			}
		}
	}
	return n
}

// chaseLoad walks an associative single-use chain from top down and
// returns the op (and operand index) whose operand is a load matching the
// predicate.
func chaseLoad(l *cfg.Loop, top *ir.Instr, match func(*ir.Instr) bool, uses map[*ir.Instr][]*ir.Instr) (*ir.Instr, int) {
	fam := reductionFamily(top.Bin)
	if fam == 0 {
		return nil, -1
	}
	cur := top
	for depth := 0; depth < 8; depth++ {
		for i, a := range cur.Args {
			if ld, ok := a.(*ir.Instr); ok && ld.Op == ir.OpLoad && match(ld) {
				if cur.Bin == ir.BinSub && i != 0 {
					return nil, -1 // x - acc: order matters
				}
				return cur, i
			}
		}
		var next *ir.Instr
		for _, a := range cur.Args {
			ai, ok := a.(*ir.Instr)
			if !ok || ai.Op != ir.OpBin || reductionFamily(ai.Bin) != fam || !l.Contains(ai.Block) {
				continue
			}
			if len(uses[ai]) != 1 {
				continue
			}
			if next != nil {
				return nil, -1
			}
			next = ai
		}
		if next == nil {
			return nil, -1
		}
		if fam == 1 && cur.Bin == ir.BinSub && cur.Args[0] != ir.Value(next) {
			return nil, -1
		}
		cur = next
	}
	return nil, -1
}
