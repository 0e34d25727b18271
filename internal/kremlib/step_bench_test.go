package kremlib

// Microbenchmarks for the per-instruction profiling path. Step runs once
// per executed IR instruction, so ns/op and allocs/op here bound HCPA
// instrumentation overhead end to end. Run with -benchmem; the hot-path
// rewrite targets zero steady-state allocations.

import (
	"testing"

	"kremlin/internal/ast"
	"kremlin/internal/ir"
	"kremlin/internal/profile"
	"kremlin/internal/types"
)

// benchRuntime builds a runtime nested depth regions deep, the typical
// main→func→loop→body shape.
func benchRuntime(depth int) (*Runtime, *FrameState, *ir.Func) {
	prof := profile.New()
	rt := NewRuntime(prof, Options{})
	f := synthFunc()
	fs := rt.NewFrame(f, nil)
	for _, r := range synthRegions(depth) {
		rt.EnterRegion(r)
	}
	return rt, fs, f
}

// BenchmarkStepALU measures the register-only update: a chain of dependent
// adds, no memory traffic.
func BenchmarkStepALU(b *testing.B) {
	rt, fs, f := benchRuntime(4)
	ins := addInstr(f)
	prev := addInstr(f)
	rt.Step(fs, prev, 0, -1)
	ins.Args = []ir.Value{prev, &ir.ConstInt{V: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(fs, ins, 0, -1)
	}
}

// BenchmarkStepStoreLoad measures the shadow-memory path: alternating
// stores and loads over a strided working set, as array kernels produce.
func BenchmarkStepStoreLoad(b *testing.B) {
	rt, fs, f := benchRuntime(4)
	st := rawInstr(ir.OpStore)
	st.Args = []ir.Value{&ir.ConstInt{V: 0}, &ir.ConstFloat{V: 1}}
	ld := rawInstr(ir.OpLoad)
	ld.Typ = types.Type{Elem: ast.Float}
	ld.Args = []ir.Value{&ir.ConstInt{V: 0}}
	_ = f
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*8) & 0x3FFF
		rt.Step(fs, st, addr, -1)
		rt.Step(fs, ld, addr, -1)
	}
}

// BenchmarkStepBranchCtrl measures the control-dependence path: every
// iteration executes a branch, pushing (and same-branch-replacing) a
// control entry, as every profiled loop header does.
func BenchmarkStepBranchCtrl(b *testing.B) {
	rt, fs, f := benchRuntime(4)
	branch := f.NewBlock("hdr")
	popAt := f.NewBlock("join")
	cond := addInstr(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.PopSameBranch(fs, branch)
		vec := rt.Step(fs, cond, 0, -1)
		rt.PushCtrl(fs, branch, popAt, vec)
	}
}

// BenchmarkStepDeepWindow measures Step with a deep tracked window (16
// levels), the per-level loop cost the specialization targets.
func BenchmarkStepDeepWindow(b *testing.B) {
	rt, fs, f := benchRuntime(16)
	ins := addInstr(f)
	prev := addInstr(f)
	rt.Step(fs, prev, 0, -1)
	ins.Args = []ir.Value{prev, &ir.ConstInt{V: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(fs, ins, 0, -1)
	}
}

// benchStepBlock measures one replay of a loop body as the VM issues it:
// the back edge's phis (an induction counter and a carried value) fused
// with a body that loads, computes, stores and branches, then the
// branch's control push, six levels deep. With compact set the body
// replays its compacted template, as the VM's fused path does.
func benchStepBlock(b *testing.B, compact bool) {
	rt, fs, f := benchRuntime(6)
	mk := func(id int, op ir.Op, args ...ir.Value) *ir.Instr {
		ins := &ir.Instr{Op: op, Bin: ir.BinAdd, Typ: types.Scalar(ast.Int), Args: args, BreakArg: -1}
		ins.ID = id
		return ins
	}
	base := mk(1, ir.OpBin, &ir.ConstInt{V: 1}, &ir.ConstInt{V: 2})
	rt.Step(fs, base, 0, -1)
	next := mk(12, ir.OpBin, nil, &ir.ConstInt{V: 1})
	i := mk(2, ir.OpPhi, &ir.ConstInt{V: 0}, next)
	i.Induction = true
	next.Args[0] = i
	sum := mk(9, ir.OpBin, nil, nil)
	acc := mk(3, ir.OpPhi, &ir.ConstInt{V: 0}, sum)
	addr := mk(4, ir.OpBin, base, i)
	ld := mk(5, ir.OpLoad, addr)
	prod := mk(6, ir.OpBin, ld, acc)
	prod.Bin = ir.BinMul
	sum.Args = []ir.Value{prod, i}
	st := mk(10, ir.OpStore, addr, sum)
	cmp := mk(11, ir.OpBin, next, base)
	br := mk(13, ir.OpBr, cmp)
	phis := []*ir.Instr{i, acc}
	instrs := []*ir.Instr{addr, ld, prod, sum, st, next, cmp, br}
	edge := EdgeTemplateOf(phis, 1)
	body := BlockTemplateOf(instrs)
	var work uint64
	for _, ins := range instrs {
		work += ins.Latency()
	}
	if compact {
		f.NewBlock("body").Instrs = append(phis, instrs...)
		body = NewCompactor(f).Template(instrs)
	}
	branch, popAt := f.NewBlock("hdr"), f.NewBlock("exit")
	addrs := []uint64{0x1000, 0x1000}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rt.PopSameBranch(fs, branch)
		brVec := rt.StepBlock(fs, edge, body, addrs, work)
		rt.PushBlockCtrl(fs, branch, popAt, brVec)
	}
}

func BenchmarkStepBlockPlain(b *testing.B)   { benchStepBlock(b, false) }
func BenchmarkStepBlockCompact(b *testing.B) { benchStepBlock(b, true) }
