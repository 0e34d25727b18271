package kremlib

// StepBlock must be observably identical to issuing Step once per
// template instruction. These tests drive both on twin runtimes over
// blocks that load, store, return, draw random numbers and print, and over
// the phis of the edges into them, and compare every piece of state a
// later instruction, region exit or caller can read.

import (
	"fmt"
	"reflect"
	"testing"

	"kremlin/internal/ast"
	"kremlin/internal/ir"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
	"kremlin/internal/types"
)

// blockIns fabricates one instruction with a fixed value ID.
func blockIns(id int, op ir.Op, args ...ir.Value) *ir.Instr {
	ins := &ir.Instr{Op: op, Bin: ir.BinAdd, Typ: types.Scalar(ast.Int), Args: args, BreakArg: -1}
	ins.ID = id
	return ins
}

// blockCase is one block plus the addresses its loads and stores touch.
type blockCase struct {
	name string
	opts Options
	// phis are stepped on entry with predIdx, as the edge into the block.
	phis    []*ir.Instr
	predIdx int
	body    []*ir.Instr
	addrs   []uint64
	// outer is stepped before the loop regions are entered, so its vector
	// is shorter than the window (a loop-invariant operand).
	outer *ir.Instr
	// shrink runs the second execution with the body region exited, one
	// level shallower, so the third execution grows every register it
	// writes back in place over stale entries.
	shrink bool
	// liveOut are the body values some other block reads; compaction
	// keeps their entries.
	liveOut []*ir.Instr
}

// twinState is everything observable after a block has run.
type twinState struct {
	regs    []shadow.Vec
	mem     map[uint64]shadow.Vec
	retVec  shadow.Vec
	ioVec   shadow.Vec
	randVec shadow.Vec
	ctrl    shadow.Vec
	maxTime []uint64
	work    uint64
	last    shadow.Vec
	carried []int
	dict    []profile.Entry
}

// twinMode selects how runTwin executes a block.
type twinMode int

const (
	// twinStep issues one Step per instruction.
	twinStep twinMode = iota
	// twinPlain replays the plain templates, the edge fused with the body,
	// except in the second execution, which replays the edge alone and
	// then the body in two runs, as the VM does for exact blocks.
	twinPlain
	// twinCompact is twinPlain with the compacted body template (and the
	// block's summed latency as its work) in the fused executions, as the
	// VM's fused path replays it; the second execution still replays the
	// plain halves.
	twinCompact
)

// compactOf compacts c's body the way the bytecode compiler does, in a
// function holding the block (phis and body) and a second block that
// reads c.liveOut.
func compactOf(c blockCase) BlockTemplate {
	f := synthFunc()
	blk, use := f.NewBlock("blk"), f.NewBlock("use")
	blk.Instrs = append(append([]*ir.Instr(nil), c.phis...), c.body...)
	sink := blockIns(255, ir.OpRet)
	for _, v := range c.liveOut {
		sink.Args = append(sink.Args, v)
	}
	use.Instrs = []*ir.Instr{sink}
	return NewCompactor(f).Template(c.body)
}

// runTwin executes c's edge and block three times inside a func → loop →
// body region nest — iterating the body between executions so loads
// observe earlier iterations' stores and phis earlier iterations' values —
// as mode says, and snapshots the runtime. A Br-ended block pushes its
// control entry (PushCtrl after Steps, PushBlockCtrl after a replay),
// popped again on re-entry as the VM does.
func runTwin(t *testing.T, c blockCase, mode twinMode) twinState {
	t.Helper()
	prof := profile.New()
	rt := NewRuntime(prof, c.opts)
	fn := &ir.Func{Name: "synth"}
	fr := &regions.Region{ID: 0, Kind: regions.FuncRegion, Func: fn}
	loop := &regions.Region{ID: 1, Kind: regions.LoopRegion, Func: fn, Parent: fr}
	body := &regions.Region{ID: 2, Kind: regions.BodyRegion, Func: fn, Parent: loop}
	f := synthFunc()
	fs := rt.NewFrame(f, nil)
	rt.EnterRegion(fr)
	rt.Step(fs, c.outer, 0, -1)
	rt.EnterRegion(loop)
	rt.EnterRegion(body)

	// A control entry makes the baseline non-trivial.
	branch, join := f.NewBlock("hdr"), f.NewBlock("join")
	cond := blockIns(200, ir.OpBin, c.outer, &ir.ConstInt{V: 1})
	rt.PushCtrl(fs, branch, join, rt.Step(fs, cond, 0, -1))
	self := f.NewBlock("self")
	pushes := len(c.body) > 0 && c.body[len(c.body)-1].Op == ir.OpBr

	edge := EdgeTemplateOf(c.phis, c.predIdx)
	tpl := BlockTemplateOf(c.body)
	fused, work := tpl, plainWork(tpl)
	if mode == twinCompact {
		fused, work = compactOf(c), 0
		for _, ins := range c.body {
			work += ins.Latency()
		}
	}
	var last shadow.Vec
	for iter := 0; iter < 3; iter++ {
		switch {
		case iter > 0 && c.shrink && iter == 1:
			rt.ExitRegion()
		case iter > 0 && c.shrink:
			rt.EnterRegion(body)
		case iter > 0:
			rt.IterateRegion(body)
		}
		rt.PopSameBranch(fs, self)
		switch {
		case mode == twinStep:
			for _, phi := range c.phis {
				last = rt.Step(fs, phi, 0, c.predIdx)
			}
			k := 0
			for _, ins := range c.body {
				var addr uint64
				if ins.Op == ir.OpLoad || ins.Op == ir.OpStore {
					addr = c.addrs[k]
					k++
				}
				last = rt.Step(fs, ins, addr, -1)
			}
			if pushes {
				rt.PushCtrl(fs, self, join, last)
			}
		case iter == 1:
			if len(edge) > 0 {
				last = rt.StepBlock(fs, edge, nil, nil, 0)
			}
			half := len(tpl) / 2
			mem := 0
			for _, ti := range tpl[:half] {
				if ti.Kind == TplLoad || ti.Kind == TplLoadReduction || ti.Kind == TplStore {
					mem++
				}
			}
			if half > 0 {
				last = rt.StepBlock(fs, nil, tpl[:half], c.addrs[:mem], plainWork(tpl[:half]))
			}
			if len(tpl) > half {
				last = rt.StepBlock(fs, nil, tpl[half:], c.addrs[mem:], plainWork(tpl[half:]))
			}
			if pushes {
				rt.PushBlockCtrl(fs, self, join, last)
			}
		default:
			last = rt.StepBlock(fs, edge, fused, c.addrs, work)
			if pushes {
				rt.PushBlockCtrl(fs, self, join, last)
			}
		}
	}

	st := twinState{
		mem:     map[uint64]shadow.Vec{},
		retVec:  append(shadow.Vec(nil), fs.RetVec...),
		ioVec:   append(shadow.Vec(nil), rt.ioVec...),
		randVec: append(shadow.Vec(nil), rt.randVec...),
		ctrl:    append(shadow.Vec(nil), fs.ctrlVec()...),
		work:    rt.TotalWork(),
		last:    append(shadow.Vec(nil), last...),
		carried: rt.CarriedDeps(),
	}
	for id := 0; id < f.NumValues(); id++ {
		st.regs = append(st.regs, append(shadow.Vec(nil), fs.Regs.Get(id)...))
	}
	for _, a := range c.addrs {
		st.mem[a] = rt.Mem().ReadVec(a)
	}
	for l := 0; l < rt.level(); l++ {
		st.maxTime = append(st.maxTime, rt.maxTime[l])
	}
	rt.Unwind(0)
	st.dict = prof.Dict.Entries
	return st
}

// masked returns st without what a compacted replay leaves undefined: the
// registers of the temporaries it inlined, and the returned vector of a
// block that ends in a jump (only a branch's is read).
func masked(st twinState, c blockCase, compact BlockTemplate) twinState {
	kept := map[int]bool{}
	for _, ti := range compact {
		kept[int(ti.Res)] = true
	}
	st.regs = append([]shadow.Vec(nil), st.regs...)
	for _, ins := range c.body {
		if !kept[ins.ID] {
			st.regs[ins.ID] = nil
		}
	}
	if n := len(c.body); n > 0 && c.body[n-1].Op == ir.OpJump {
		st.last = nil
	}
	return st
}

// plainWork is the work of a plain template run: its entries' latencies.
func plainWork(tpl BlockTemplate) uint64 {
	var w uint64
	for _, ti := range tpl {
		w += uint64(ti.Lat)
	}
	return w
}

func TestStepBlockMatchesStep(t *testing.T) {
	outer := blockIns(1, ir.OpBin, &ir.ConstInt{V: 1}, &ir.ConstInt{V: 2})
	addr := blockIns(2, ir.OpBin, outer, &ir.ConstInt{V: 3}) // the cell's address computation

	// store a[x] <- v; load a[x]; use it; store it elsewhere; return.
	storeLoad := func() []*ir.Instr {
		v := blockIns(3, ir.OpBin, outer, outer)
		v.Bin = ir.BinMul
		st := blockIns(4, ir.OpStore, addr, v)
		ld := blockIns(5, ir.OpLoad, addr)
		sum := blockIns(6, ir.OpBin, ld, v)
		st2 := blockIns(7, ir.OpStore, addr, sum)
		ret := blockIns(8, ir.OpRet, sum)
		return []*ir.Instr{addr, v, st, ld, sum, st2, ret}
	}
	// a[x] += y across iterations: the accumulator load is
	// reduction-marked, the update's BreakArg drops it, and a plain load
	// of a cell another iteration stored is a genuine carried read.
	reduction := func(reduce bool) []*ir.Instr {
		ld := blockIns(10, ir.OpLoad, addr)
		ld.Reduction = reduce
		y := blockIns(11, ir.OpBin, &ir.ConstInt{V: 5}, outer)
		upd := blockIns(12, ir.OpBin, ld, y)
		if reduce {
			upd.BreakArg = 0
			upd.Reduction = true
		}
		st := blockIns(13, ir.OpStore, addr, upd)
		st.Reduction = reduce
		br := blockIns(14, ir.OpBr, upd)
		return []*ir.Instr{addr, ld, y, upd, st, br}
	}
	// Operand counts 0, 1, 2 and 3 exercise every fused kernel.
	arity := func() []*ir.Instr {
		g := blockIns(20, ir.OpGlobal)
		n := blockIns(21, ir.OpNeg, outer)
		a2 := blockIns(22, ir.OpBin, n, g)
		a3 := blockIns(23, ir.OpBin, a2, n, outer)
		ld := blockIns(24, ir.OpLoad, a3)
		ret := blockIns(25, ir.OpRet)
		return []*ir.Instr{g, n, a2, a3, ld, ret}
	}

	// The phis of the edge into a block. Each names a value the block
	// itself computes, so every execution after the first reads the
	// previous iteration's vector.
	phi := func(id int, arg ir.Value) *ir.Instr {
		p := blockIns(id, ir.OpPhi, &ir.ConstInt{V: 0}, arg)
		return p
	}
	// x = phi(x): a value carried unchanged round the back edge.
	selfPhi := func() ([]*ir.Instr, []*ir.Instr) {
		x := phi(30, nil)
		x.Args[1] = x
		y := blockIns(31, ir.OpBin, x, outer)
		return []*ir.Instr{x}, []*ir.Instr{y, blockIns(32, ir.OpBr, y)}
	}
	// p = phi(next); q = phi(p) reads the phi stepped just before it.
	chainPhi := func() ([]*ir.Instr, []*ir.Instr) {
		next := blockIns(42, ir.OpBin, outer, outer)
		p := phi(40, next)
		q := phi(41, p)
		sum := blockIns(43, ir.OpBin, q, outer)
		next.Args[1] = sum
		return []*ir.Instr{p, q}, []*ir.Instr{sum, next, blockIns(44, ir.OpRet, next)}
	}
	// i = phi(i+1) as an induction phi, r = phi(r+y) as a reduction phi,
	// or both plain.
	carriedPhis := func(marked bool) ([]*ir.Instr, []*ir.Instr) {
		inc := blockIns(52, ir.OpBin, nil, &ir.ConstInt{V: 1})
		i := phi(50, inc)
		i.Induction = marked
		inc.Args[0] = i
		y := blockIns(53, ir.OpBin, outer, &ir.ConstInt{V: 5})
		acc := blockIns(54, ir.OpBin, nil, y)
		r := phi(51, acc)
		r.Reduction = marked
		acc.Args[0] = r
		if marked {
			acc.BreakArg = 0
			acc.Reduction = true
		}
		return []*ir.Instr{i, r}, []*ir.Instr{inc, y, acc, blockIns(55, ir.OpBr, acc)}
	}
	// A phi whose operand is a constant, and one whose block is entered
	// from no known predecessor (predIdx -1 folds no operand).
	constPhi := func() ([]*ir.Instr, []*ir.Instr) {
		k := blockIns(60, ir.OpPhi, &ir.ConstInt{V: 0}, &ir.ConstInt{V: 7})
		u := blockIns(61, ir.OpBin, k, outer)
		return []*ir.Instr{k}, []*ir.Instr{u, blockIns(62, ir.OpRet, u)}
	}
	// rand, srand and print entries chain through the RNG and IO vectors.
	randPrint := func() []*ir.Instr {
		builtin := func(id int, name string, args ...ir.Value) *ir.Instr {
			b := blockIns(id, ir.OpBuiltin, args...)
			b.Builtin = name
			return b
		}
		r := builtin(70, "rand")
		v := blockIns(71, ir.OpBin, r, outer)
		return []*ir.Instr{r, v, builtin(72, "printval", v), builtin(73, "srand", v),
			builtin(74, "frand"), builtin(75, "printstr"), builtin(76, "printnl"),
			blockIns(77, ir.OpBr, v)}
	}

	// Cases for compaction. Six loads feed a tree of adds and multiplies
	// whose root would fold eight loads: past maxFanIn, so the widest
	// subtree is materialized. The loads' results are the roots.
	wide := func() []*ir.Instr {
		var lds []*ir.Instr
		for k := 0; k < 8; k++ {
			lds = append(lds, blockIns(80+k, ir.OpLoad, addr))
		}
		s1 := blockIns(90, ir.OpBin, lds[0], lds[1])
		s1.Bin = ir.BinMul
		s2 := blockIns(91, ir.OpBin, lds[2], lds[3])
		s3 := blockIns(92, ir.OpBin, lds[4], lds[5])
		s3.Bin = ir.BinDiv
		s4 := blockIns(93, ir.OpBin, lds[6], lds[7])
		t1 := blockIns(94, ir.OpBin, s1, s2)
		t2 := blockIns(95, ir.OpBin, s3, s4)
		top := blockIns(96, ir.OpBin, t1, t2)
		return append(lds, s1, s2, s3, s4, t1, t2, top, blockIns(97, ir.OpBr, top))
	}
	// v = outer*outer feeds both a and b = v + a: one temporary inlined
	// twice, its root reached on two paths of different length.
	twice := func() []*ir.Instr {
		v := blockIns(100, ir.OpBin, outer, outer)
		v.Bin = ir.BinMul
		ld := blockIns(101, ir.OpLoad, addr)
		a := blockIns(102, ir.OpBin, v, ld)
		b := blockIns(103, ir.OpBin, v, a)
		return []*ir.Instr{v, ld, a, b, blockIns(104, ir.OpRet, b)}
	}
	// x is read only as upd's broken operand: no use folds it, so it stays
	// a dead leaf whose only effect is its critical-path write; u has no
	// use at all.
	breakOnly := func() []*ir.Instr {
		x := blockIns(110, ir.OpBin, outer, &ir.ConstInt{V: 1})
		x.Bin = ir.BinMul
		y := blockIns(111, ir.OpBin, outer, &ir.ConstInt{V: 2})
		upd := blockIns(112, ir.OpBin, x, y)
		upd.BreakArg = 0
		u := blockIns(113, ir.OpBin, outer, outer)
		return []*ir.Instr{x, y, upd, u, blockIns(114, ir.OpBr, upd)}
	}
	// A jump-ended block: the jump's entry is dropped, and a global and
	// the address arithmetic fold into the store as offsets.
	jumpEnded := func() []*ir.Instr {
		g := blockIns(120, ir.OpGlobal)
		v := blockIns(121, ir.OpBin, g, outer)
		w := blockIns(122, ir.OpNeg, v)
		return []*ir.Instr{g, v, w, blockIns(123, ir.OpStore, addr, w), blockIns(124, ir.OpJump)}
	}

	var cases []blockCase
	for _, window := range []int{0, 1, 2} {
		for _, trace := range []bool{false, true} {
			opts := Options{MinDepth: window, TraceDeps: trace}
			tag := fmt.Sprintf("min%d-trace%v", window, trace)
			edgeCase := func(name string, mk func() ([]*ir.Instr, []*ir.Instr), predIdx int, shrink bool) blockCase {
				phis, body := mk()
				return blockCase{name: name + "/" + tag, opts: opts, outer: outer,
					phis: phis, predIdx: predIdx, body: body, shrink: shrink}
			}
			cases = append(cases,
				blockCase{name: "store-load-same-cell/" + tag, opts: opts, outer: outer,
					body: storeLoad(), addrs: []uint64{0x100, 0x100, 0x100}},
				blockCase{name: "reduction-load/" + tag, opts: opts, outer: outer,
					body: reduction(true), addrs: []uint64{0x200, 0x200}},
				blockCase{name: "carried-load/" + tag, opts: opts, outer: outer,
					body: reduction(false), addrs: []uint64{0x300, 0x300}},
				blockCase{name: "arity/" + tag, opts: opts, outer: outer,
					body: arity(), addrs: []uint64{0x5000}},
				edgeCase("phi-self-growing-window", selfPhi, 1, true),
				edgeCase("phi-reads-earlier-phi", chainPhi, 1, false),
				edgeCase("phi-induction-reduction", func() ([]*ir.Instr, []*ir.Instr) { return carriedPhis(true) }, 1, false),
				edgeCase("phi-carried", func() ([]*ir.Instr, []*ir.Instr) { return carriedPhis(false) }, 1, false),
				edgeCase("phi-pred-none", chainPhi, -1, false),
				edgeCase("phi-constant", constPhi, 1, false),
				blockCase{name: "rand-print/" + tag, opts: opts, outer: outer, body: randPrint()},
				blockCase{name: "wide-dag/" + tag, opts: opts, outer: outer, body: wide(),
					addrs: []uint64{0x600, 0x608, 0x610, 0x618, 0x620, 0x628, 0x630, 0x638}},
				blockCase{name: "temp-used-twice/" + tag, opts: opts, outer: outer, body: twice(),
					addrs: []uint64{0x700}},
				blockCase{name: "break-arg-only/" + tag, opts: opts, outer: outer, body: breakOnly()},
				blockCase{name: "jump-ended/" + tag, opts: opts, outer: outer, body: jumpEnded(),
					addrs: []uint64{0x800}},
			)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := runTwin(t, c, twinStep)
			got := runTwin(t, c, twinPlain)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("StepBlock diverged from Step:\nstep:  %+v\nblock: %+v", want, got)
			}
			// The VM replays compacted templates only when the runtime
			// does not trace dependences.
			if c.opts.TraceDeps {
				return
			}
			compact := compactOf(c)
			plain := masked(got, c, compact)
			if cgot := masked(runTwin(t, c, twinCompact), c, compact); !reflect.DeepEqual(cgot, plain) {
				t.Errorf("compacted replay diverged from plain:\nplain:   %+v\ncompact: %+v", plain, cgot)
			}
		})
	}

	// The compaction cases compact as designed.
	written := func(tpl BlockTemplate) map[int32]bool {
		w := map[int32]bool{}
		for _, ti := range tpl {
			w[ti.Res] = true
		}
		return w
	}
	entries := func(body []*ir.Instr) (BlockTemplate, map[int32]bool) {
		tpl := compactOf(blockCase{outer: outer, body: body})
		return tpl, written(tpl)
	}
	if tpl, w := entries(wide()); !w[94] || !w[95] || w[90] || w[93] || len(tpl) != 8+3 {
		t.Errorf("wide DAG: want the eight loads, t1 and t2 materialized and the branch; got %+v", tpl)
	} else {
		for _, ti := range tpl {
			var buf [2]TplOp
			if n := len(ti.Operands(&buf)); n > maxFanIn {
				t.Errorf("wide DAG: entry folds %d operands, above the cap %d", n, maxFanIn)
			}
		}
	}
	// outer reaches the return through v→b (2+1+1) and v→a→b (2+1+1+1).
	if tpl, _ := entries(twice()); len(tpl) != 2 || tpl[1].Kind != TplRet || tpl[1].A != (TplOp{Reg: 1, Off: 5}) {
		t.Errorf("temporary used twice: want the load and the return folding outer at offset 5; got %+v", tpl)
	}
	if tpl, w := entries(breakOnly()); !w[110] || !w[113] || w[111] || w[112] || len(tpl) != 3 {
		t.Errorf("break-arg-only: want dead leaves x and u and the branch; got %+v", tpl)
	}
	if tpl, _ := entries(jumpEnded()); len(tpl) != 1 || tpl[0].Kind != TplStore || tpl[0].Base != 1+1+1 {
		t.Errorf("jump-ended: want one store over base offset 3; got %+v", tpl)
	}

	// The tracer cases must actually discriminate: the plain load of a
	// cross-iteration store is flagged, the reduction load is not.
	trace := Options{TraceDeps: true}
	if c := runTwin(t, blockCase{opts: trace, outer: outer, body: reduction(false), addrs: []uint64{0x300, 0x300}}, twinPlain).carried; len(c) != 1 || c[0] != 1 {
		t.Errorf("carried load: CarriedDeps = %v, want [1]", c)
	}
	if c := runTwin(t, blockCase{opts: trace, outer: outer, body: reduction(true), addrs: []uint64{0x200, 0x200}}, twinPlain).carried; len(c) != 0 {
		t.Errorf("reduction load: CarriedDeps = %v, want none", c)
	}
	phis, body := carriedPhis(false)
	if c := runTwin(t, blockCase{opts: trace, outer: outer, phis: phis, predIdx: 1, body: body}, twinPlain).carried; len(c) != 1 || c[0] != 1 {
		t.Errorf("carried phis: CarriedDeps = %v, want [1]", c)
	}
	phis, body = carriedPhis(true)
	if c := runTwin(t, blockCase{opts: trace, outer: outer, phis: phis, predIdx: 1, body: body}, twinPlain).carried; len(c) != 0 {
		t.Errorf("induction and reduction phis: CarriedDeps = %v, want none", c)
	}
}
