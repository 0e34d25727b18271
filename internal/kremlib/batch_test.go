package kremlib

// StepBlock must be observably identical to issuing Step once per
// template instruction. These tests drive both on twin runtimes over
// blocks that load, store and return, and compare every piece of state a
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

// templateOf builds a block template with the bytecode compiler's rules:
// constants and BreakArg operands dropped (a load always keeps its
// address), the side effect carried in Kind.
func templateOf(body []*ir.Instr) *BlockTemplate {
	tpl := &BlockTemplate{}
	for _, ins := range body {
		ti := TplIns{Res: -1, Lat: ins.Latency()}
		if ins.HasResult() {
			ti.Res = int32(ins.ID)
		}
		brk := ins.BreakArg
		switch ins.Op {
		case ir.OpLoad:
			brk = -1
			ti.Kind = TplLoad
			if ins.Reduction {
				ti.Kind = TplLoadReduction
			}
		case ir.OpStore:
			ti.Kind = TplStore
		case ir.OpRet:
			ti.Kind = TplRet
		}
		for i, a := range ins.Args {
			if ai, ok := a.(*ir.Instr); ok && i != brk {
				ti.Args = append(ti.Args, int32(ai.ID))
			}
		}
		tpl.TotalLat += ti.Lat
		tpl.Ins = append(tpl.Ins, ti)
	}
	return tpl
}

// blockIns fabricates one instruction with a fixed value ID.
func blockIns(id int, op ir.Op, args ...ir.Value) *ir.Instr {
	ins := &ir.Instr{Op: op, Bin: ir.BinAdd, Typ: types.Scalar(ast.Int), Args: args, BreakArg: -1}
	ins.ID = id
	return ins
}

// blockCase is one block plus the addresses its loads and stores touch.
type blockCase struct {
	name  string
	opts  Options
	body  []*ir.Instr
	addrs []uint64
	// outer is stepped before the loop regions are entered, so its vector
	// is shorter than the window (a loop-invariant operand).
	outer *ir.Instr
}

// twinState is everything observable after a block has run.
type twinState struct {
	regs    []shadow.Vec
	mem     map[uint64]shadow.Vec
	retVec  shadow.Vec
	maxTime []uint64
	work    uint64
	last    shadow.Vec
	carried []int
	dict    []profile.Entry
}

// runTwin executes c's block three times inside a func → loop → body
// region nest — iterating the body between executions so loads observe
// earlier iterations' stores — either as per-instruction Steps or as
// StepBlock calls, and snapshots the runtime.
func runTwin(t *testing.T, c blockCase, batched bool) twinState {
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

	tpl := templateOf(c.body)
	var last shadow.Vec
	for iter := 0; iter < 3; iter++ {
		if iter > 0 {
			rt.IterateRegion(body)
		}
		if batched {
			last = rt.StepBlock(fs, tpl, c.addrs)
		} else {
			k := 0
			for _, ins := range c.body {
				var addr uint64
				if ins.Op == ir.OpLoad || ins.Op == ir.OpStore {
					addr = c.addrs[k]
					k++
				}
				last = rt.Step(fs, ins, addr, -1)
			}
		}
	}

	st := twinState{
		mem:     map[uint64]shadow.Vec{},
		retVec:  append(shadow.Vec(nil), fs.RetVec...),
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
		st.maxTime = append(st.maxTime, rt.stack[l].maxTime)
	}
	rt.Unwind(0)
	st.dict = prof.Dict.Entries
	return st
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

	var cases []blockCase
	for _, window := range []int{0, 1, 2} {
		for _, trace := range []bool{false, true} {
			opts := Options{MinDepth: window, TraceDeps: trace}
			tag := fmt.Sprintf("min%d-trace%v", window, trace)
			cases = append(cases,
				blockCase{name: "store-load-same-cell/" + tag, opts: opts, outer: outer,
					body: storeLoad(), addrs: []uint64{0x100, 0x100, 0x100}},
				blockCase{name: "reduction-load/" + tag, opts: opts, outer: outer,
					body: reduction(true), addrs: []uint64{0x200, 0x200}},
				blockCase{name: "carried-load/" + tag, opts: opts, outer: outer,
					body: reduction(false), addrs: []uint64{0x300, 0x300}},
				blockCase{name: "arity/" + tag, opts: opts, outer: outer,
					body: arity(), addrs: []uint64{0x5000}},
			)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := runTwin(t, c, false)
			got := runTwin(t, c, true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("StepBlock diverged from Step:\nstep:  %+v\nblock: %+v", want, got)
			}
		})
	}

	// The tracer cases must actually discriminate: the plain load of a
	// cross-iteration store is flagged, the reduction load is not.
	trace := Options{TraceDeps: true}
	if c := runTwin(t, blockCase{opts: trace, outer: outer, body: reduction(false), addrs: []uint64{0x300, 0x300}}, true).carried; len(c) != 1 || c[0] != 1 {
		t.Errorf("carried load: CarriedDeps = %v, want [1]", c)
	}
	if c := runTwin(t, blockCase{opts: trace, outer: outer, body: reduction(true), addrs: []uint64{0x200, 0x200}}, true).carried; len(c) != 0 {
		t.Errorf("reduction load: CarriedDeps = %v, want none", c)
	}
}
