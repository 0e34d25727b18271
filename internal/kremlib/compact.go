package kremlib

// Compacted block templates: a max-plus summary of what leaves a block.
//
// Within one block the tags and the control baseline are fixed, so the
// availability fold is exact max-plus algebra. A temporary t computes
// max(base, ops_t) + lat_t at every tracked level, and its consumer c
// computes max(base, t, ops_c) + lat_c, which distributes to
//
//	max(base + lat_t + lat_c, op + lat_t + lat_c for op in ops_t, op + lat_c for op in ops_c).
//
// So t's register need not exist: c can fold t's operands (its roots) at
// offsets directly. Nor is t's own per-level write of the critical path
// needed, since c's result dominates t's at every level. An operand whose
// tag does not match reads as zero, and zero plus any root offset is at
// most base plus the entry's base offset, so such an operand can be
// skipped exactly as in a plain entry.
//
// A temporary is inlined when it is a register-only value (TplPlain,
// neither a phi nor a param) whose every use is in its own block's body,
// not in a phi, and at least one of those uses folds it. Everything else
// keeps its own entry: loads (they read memory at their position), stores,
// returns, rand and print (they read and write a runtime chain), values
// live out of the block, dead leaves (values no use folds — their write to
// the critical path is their only effect) and the terminator, whose vector
// is PushBlockCtrl's brVec.
//
// Jump entries are dropped. A jump folds nothing, writes no register and
// has latency 0, so it writes the baseline to the scratch vector and
// raises the critical path to it. That raise is a no-op: the control time
// at a tracked level whose tag matches the current region instance never
// exceeds the open region's critical path there. Every control vector is
// either a branch's replayed vector (whose levels were raised into maxTime
// when it was computed, under the same tags) or the caller's control time
// copied at frame entry (the same argument one frame up), and maxTime only
// grows until its region exits, when the level's tag changes for good.

import (
	"math"

	"kremlin/internal/ir"
)

// maxFanIn caps the operands a compacted entry gains by inlining, at the
// widest fused kernel's four (stepLoad4): an entry whose inlined operands
// would exceed it materializes the widest of them into its own entry, so
// a wide expression DAG cannot turn one entry into an arbitrarily wide,
// multi-pass fold.
const maxFanIn = 4

const (
	valEscapes = 1 << iota // used outside its block's body, or by a phi or call
	valFolded              // some use in its own block folds it
	valInlined             // an inlined temporary of the block being compacted
)

// compactVal is the Compactor's scratch state of one value ID.
type compactVal struct {
	block int32 // 1 + index of the defining block, 0 if none
	// An inlined temporary's consumers fold its expression, ops[start:
	// start+n] over base offset base, instead of its register; lat is its
	// own latency, should it be materialized.
	start     int32
	base, lat uint32
	slot      int32 // 1 + index of the value in cur while an entry is built
	n         uint8
	flags     uint8
}

// Compactor builds the compacted templates of one function's blocks. Its
// scratch state is indexed by value ID, so each block compacts in one
// linear pass over its instructions. Reset readies it for another
// function, keeping its scratch, so one Compactor can serve a whole
// module.
type Compactor struct {
	vals []compactVal
	ops  []TplOp // expressions of the current block's inlined temporaries
	cur  []TplOp // operands of the entry being built
	tpl  BlockTemplate
}

// NewCompactor returns a Compactor Reset for f.
func NewCompactor(f *ir.Func) *Compactor {
	c := &Compactor{}
	c.Reset(f)
	return c
}

// Reset classifies every value of f: which ones are used outside their
// block, and which have a use that folds them.
func (c *Compactor) Reset(f *ir.Func) {
	if n := f.NumValues(); cap(c.vals) < n {
		c.vals = make([]compactVal, n)
	} else {
		c.vals = c.vals[:n]
		clear(c.vals)
	}
	for bi, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.HasResult() {
				c.vals[ins.ID].block = int32(bi) + 1
			}
		}
	}
	for bi, b := range f.Blocks {
		for _, ins := range b.Instrs {
			for i, a := range ins.Args {
				ai, ok := a.(*ir.Instr)
				if !ok {
					continue
				}
				v := &c.vals[ai.ID]
				switch {
				case ins.Op == ir.OpPhi || ins.Op == ir.OpCall || v.block != int32(bi)+1:
					v.flags |= valEscapes
				case Folds(ins, i):
					v.flags |= valFolded
				}
			}
		}
	}
}

// Template builds the compacted template of a fused block's body (its
// instructions after the phis): block-local temporaries inlined into
// their consumers as (root, offset) pairs plus a base offset, jumps
// dropped, and every other instruction kept as one entry in IR order —
// except that a temporary materialized under maxFanIn gets its entry just
// before the consumer that needed it. The replay of the result equals the
// plain template's in everything but the inlined temporaries' registers,
// which it never writes; the block's summed latency is the caller's to add
// (StepBlock's work). A block whose summed latency overflows the uint32
// offsets gets its plain template.
func (c *Compactor) Template(body []*ir.Instr) BlockTemplate {
	c.tpl, c.ops = c.tpl[:0], c.ops[:0]
	var total uint64
	for _, ins := range body {
		total += ins.Latency()
		if ins.Op == ir.OpParam || ins.Op == ir.OpJump {
			continue
		}
		kind, res := tplKind(ins)
		lat := uint32(ins.Latency())
		base := c.fold(ins, lat)
		for len(c.cur) > maxFanIn {
			w := c.widest(ins)
			if w < 0 {
				break
			}
			v := &c.vals[w]
			c.tpl = append(c.tpl, newTplIns(w, TplPlain, v.base, v.lat, c.ops[v.start:v.start+int32(v.n)]))
			v.flags &^= valInlined
			base = c.fold(ins, lat)
		}
		if res >= 0 {
			v := &c.vals[res]
			v.flags &^= valInlined
			if kind == TplPlain && v.flags == valFolded && len(c.cur) <= math.MaxUint8 {
				v.flags |= valInlined
				v.start, v.n, v.base, v.lat = int32(len(c.ops)), uint8(len(c.cur)), base, lat
				c.ops = append(c.ops, c.cur...)
				continue
			}
		}
		c.tpl = append(c.tpl, newTplIns(res, kind, base, lat, c.cur))
	}
	if total > math.MaxUint32 {
		return BlockTemplateOf(body)
	}
	return append(BlockTemplate(nil), c.tpl...)
}

// fold builds ins's entry operands in cur — each inlined operand's roots
// at their offsets plus lat, each other folded operand at lat — and
// returns the entry's base offset.
func (c *Compactor) fold(ins *ir.Instr, lat uint32) uint32 {
	base := lat
	c.cur = c.cur[:0]
	for i, a := range ins.Args {
		ai, ok := a.(*ir.Instr)
		if !ok || !Folds(ins, i) {
			continue
		}
		v := &c.vals[ai.ID]
		if v.flags&valInlined == 0 {
			c.add(int32(ai.ID), lat)
			continue
		}
		if lat+v.base > base {
			base = lat + v.base
		}
		for _, op := range c.ops[v.start : v.start+int32(v.n)] {
			c.add(op.Reg, lat+op.Off)
		}
	}
	for _, op := range c.cur {
		c.vals[op.Reg].slot = 0
	}
	return base
}

// widest returns the inlined operand of ins with the most roots, or -1
// when none has more than one (materializing it would not shrink the
// fan-in).
func (c *Compactor) widest(ins *ir.Instr) int32 {
	w, wn := int32(-1), uint8(1)
	for i, a := range ins.Args {
		if ai, ok := a.(*ir.Instr); ok && Folds(ins, i) {
			if v := &c.vals[ai.ID]; v.flags&valInlined != 0 && v.n > wn {
				w, wn = int32(ai.ID), v.n
			}
		}
	}
	return w
}

// add folds register reg at offset off into the entry being built,
// keeping the larger offset when reg is already there.
func (c *Compactor) add(reg int32, off uint32) {
	v := &c.vals[reg]
	if v.slot > 0 {
		if op := &c.cur[v.slot-1]; off > op.Off {
			op.Off = off
		}
		return
	}
	c.cur = append(c.cur, TplOp{Reg: reg, Off: off})
	v.slot = int32(len(c.cur))
}
