package bytecode

import (
	"context"
	"fmt"
	"io"
	"math"

	"kremlin/internal/ast"
	"kremlin/internal/inccache"
	"kremlin/internal/interp"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
)

// machine is one VM execution. Its observable state (step/work counters,
// heap layout, RNG, profiling structures) is field-for-field the reference
// interpreter's, so every counter and error matches bit-for-bit.
type machine struct {
	p     *Program
	cfg   interp.Config
	out   io.Writer
	steps uint64
	limit uint64
	ctx   context.Context

	heap     []uint64
	heapTop  uint64
	heapCap  uint64
	heapPeak uint64 // high-water mark, tracked for cache-skip budget fidelity

	rng uint64

	globalBase []uint64
	// globalVals are the prebuilt descriptor values opGlobal loads.
	globalVals []val

	work uint64

	gpSelf  []uint64
	gpTotal []uint64
	gpCount []int64
	gpStack []gpFrame

	rt   *kremlib.Runtime
	prof *profile.Profile

	printedAny bool

	// regPool recycles register files across calls; phiScratch is the
	// parallel-copy buffer for edge phi moves; argScratch, vecScratch and
	// bitScratch carry a call's arguments, their shadow vectors and their
	// cache-key bits (safe to share across nested calls: the callee frame
	// copies the first two before executing any instruction, and the
	// incremental cache reads the bits before the callee runs). All of them
	// keep the steady-state dispatch loop allocation-free.
	regPool    [][]val
	phiScratch []val
	argScratch []val
	vecScratch []shadow.Vec
	bitScratch []uint64

	// dimArena backs every arr's dimension vector (see arr). Globals'
	// entries sit at the bottom for the machine's lifetime; runtime
	// allocations stack above them and are trimmed at call exit.
	dimArena []int64

	// addrs is the HCPA address buffer: the effective address of every
	// load and store executed since the last StepBlock, in execution
	// order, for the next StepBlock to consume (see package kremlib).
	addrs []uint64
}

type gpFrame struct {
	regionID  int
	entryWork uint64
	childWork uint64
}

// Run executes p.Mod.Main() under cfg on the bytecode engine. The
// contract — result fields, error types, partial results on limit
// failures — is identical to interp.Run.
func Run(p *Program, cfg interp.Config) (*interp.Result, error) {
	m := &machine{p: p, cfg: cfg, out: cfg.Out, rng: 0x9E3779B97F4A7C15}
	m.limit = cfg.MaxSteps
	if m.limit == 0 {
		m.limit = limits.DefaultMaxSteps
	}
	m.ctx = cfg.Ctx
	m.heapCap = cfg.MaxHeapWords
	if cfg.Mode != interp.Plain && cfg.Prog == nil {
		return nil, fmt.Errorf("bytecode: %v mode requires region info", cfg.Mode)
	}
	if cfg.Mode == interp.HCPA {
		m.prof = profile.New()
		m.rt = kremlib.NewRuntime(m.prof, cfg.Opts)
		if cfg.Cache != nil {
			cfg.Cache.Bind(m.prof, m.rt)
		}
	} else {
		m.cfg.Cache = nil
	}
	if cfg.Mode == interp.Gprof {
		n := len(cfg.Prog.Regions)
		m.gpSelf = make([]uint64, n)
		m.gpTotal = make([]uint64, n)
		m.gpCount = make([]int64, n)
	}

	if err := m.allocGlobals(); err != nil {
		return nil, err
	}

	main, ok := p.index[p.Mod.Main()]
	if !ok {
		return nil, fmt.Errorf("bytecode: no main function")
	}
	_, _, err := m.call(p.Func(main), nil, nil, nil)
	if err != nil {
		if limits.IsLimit(err) {
			return m.partialResult(), err
		}
		return nil, err
	}

	res := &interp.Result{Steps: m.steps}
	switch cfg.Mode {
	case interp.HCPA:
		res.Work = m.rt.TotalWork()
		res.Profile = m.prof
		res.ShadowPages = m.rt.Mem().NumPages()
		res.ShadowWrites = m.rt.Mem().Writes
		res.CarriedDeps = m.rt.CarriedDeps()
	case interp.Gprof:
		res.Work = m.work
		for id := range m.gpTotal {
			if m.gpCount[id] == 0 {
				continue
			}
			res.Gprof = append(res.Gprof, interp.GprofEntry{
				RegionID: id, Total: m.gpTotal[id], Self: m.gpSelf[id], Count: m.gpCount[id],
			})
		}
	default:
		res.Work = m.work
	}
	return res, nil
}

func (m *machine) allocGlobals() error {
	m.globalBase = make([]uint64, len(m.p.Mod.Globals))
	m.globalVals = make([]val, len(m.p.Mod.Globals))
	for i, g := range m.p.Mod.Globals {
		if g.IsArray() {
			total := int64(1)
			for _, d := range g.Dims {
				total *= d
			}
			base, err := m.alloc(total)
			if err != nil {
				return err
			}
			m.globalBase[i] = base
			m.globalVals[i] = val{a: arr{base: base, doff: m.pushDims(g.Dims), rank: int16(len(g.Dims)), elem: uint8(g.Elem)}}
			continue
		}
		addr, err := m.alloc(1)
		if err != nil {
			return err
		}
		m.globalBase[i] = addr
		m.globalVals[i] = val{a: arr{base: addr, doff: m.pushDims(g.Dims), rank: int16(len(g.Dims)), elem: uint8(g.Elem)}}
		if g.Init != nil {
			switch c := g.Init.(type) {
			case *ir.ConstInt:
				m.heap[addr-interp.HeapBase] = uint64(c.V)
			case *ir.ConstFloat:
				m.heap[addr-interp.HeapBase] = math.Float64bits(c.V)
			case *ir.ConstBool:
				if c.V {
					m.heap[addr-interp.HeapBase] = 1
				}
			}
		}
	}
	return nil
}

// pushDims appends a dimension vector to the arena and returns its offset.
func (m *machine) pushDims(dims []int64) int32 {
	doff := int32(len(m.dimArena))
	m.dimArena = append(m.dimArena, dims...)
	return doff
}

func (m *machine) alloc(n int64) (uint64, error) {
	base := interp.HeapBase + m.heapTop
	if m.heapCap > 0 && m.heapTop+uint64(n) > m.heapCap {
		return 0, limits.MemCap(m.steps, 0,
			"simulated heap cap exceeded (%d words requested, %d in use, cap %d)",
			n, m.heapTop, m.heapCap)
	}
	m.heapTop += uint64(n)
	if m.heapTop > m.heapPeak {
		m.heapPeak = m.heapTop
	}
	need := int(m.heapTop)
	if need > len(m.heap) {
		grown := make([]uint64, need*2)
		copy(grown, m.heap)
		m.heap = grown
	} else {
		for i := base - interp.HeapBase; i < base-interp.HeapBase+uint64(n); i++ {
			m.heap[i] = 0
		}
	}
	return base, nil
}

func (m *machine) partialResult() *interp.Result {
	res := &interp.Result{Steps: m.steps, Work: m.work}
	switch m.cfg.Mode {
	case interp.HCPA:
		if m.rt != nil {
			res.Work = m.rt.TotalWork()
			res.ShadowPages = m.rt.Mem().NumPages()
			res.ShadowWrites = m.rt.Mem().Writes
		}
	case interp.Gprof:
		for id := range m.gpTotal {
			if m.gpCount[id] == 0 {
				continue
			}
			res.Gprof = append(res.Gprof, interp.GprofEntry{
				RegionID: id, Total: m.gpTotal[id], Self: m.gpSelf[id], Count: m.gpCount[id],
			})
		}
	}
	return res
}

func (m *machine) checkLive() error {
	if m.ctx != nil {
		if m.ctx.Err() != nil {
			return limits.Cancelled(m.steps)
		}
	}
	if m.rt != nil {
		if err := m.rt.CheckLimits(m.steps); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) regionEnter(r *regions.Region) {
	switch m.cfg.Mode {
	case interp.HCPA:
		m.rt.EnterRegion(r)
	case interp.Gprof:
		m.gpStack = append(m.gpStack, gpFrame{regionID: r.ID, entryWork: m.work})
		m.gpCount[r.ID]++
	}
}

func (m *machine) regionExit() {
	switch m.cfg.Mode {
	case interp.HCPA:
		m.rt.ExitRegion()
	case interp.Gprof:
		top := m.gpStack[len(m.gpStack)-1]
		m.gpStack = m.gpStack[:len(m.gpStack)-1]
		total := m.work - top.entryWork
		m.gpTotal[top.regionID] += total
		m.gpSelf[top.regionID] += total - top.childWork
		if n := len(m.gpStack); n > 0 {
			m.gpStack[n-1].childWork += total
		}
	}
}

// fireEdge replays the edge's precompiled region events in the reference
// order: exits, iterate (exit+enter), enters.
func (m *machine) fireEdge(e *Edge) {
	for i := int32(0); i < e.NExit; i++ {
		m.regionExit()
	}
	if e.Iterate != nil {
		m.regionExit()
		m.regionEnter(e.Iterate)
	}
	for _, r := range e.Enter {
		m.regionEnter(r)
	}
}

func (m *machine) errAt(pos int, format string, args ...interface{}) error {
	return &interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// idx2 resolves the heap cell of a fused rank-2 access A[B][C], checking
// each level exactly as the two reference views would: non-array, then
// bounds, per level. Both views of a fused chain share one source
// position, so a single Pos serves every error.
func idx2(m *machine, dims []int64, regs []val, ins *Ins) (uint64, error) {
	a := regs[ins.A].a
	i := regs[ins.B].i
	if a.rank == 0 {
		return 0, m.errAt(int(ins.Pos), "index of non-array value")
	}
	if i < 0 || i >= dims[a.doff] {
		return 0, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", i, dims[a.doff])
	}
	if a.rank == 1 {
		return 0, m.errAt(int(ins.Pos), "index of non-array value")
	}
	d1 := dims[a.doff+1]
	j := regs[ins.C].i
	if j < 0 || j >= d1 {
		return 0, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", j, d1)
	}
	return a.base + uint64(i*d1+j) - interp.HeapBase, nil
}

// idxN resolves a fused rank-3+ access: the ins.C index registers at
// fc.IdxRegs[ins.B:] each consume one level, Horner-style, with the
// reference engine's level-by-level checks (non-array, then bounds).
func idxN(m *machine, dims []int64, fc *FuncCode, regs []val, ins *Ins) (uint64, error) {
	a := regs[ins.A].a
	var off int64
	for l, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
		if l >= int(a.rank) {
			return 0, m.errAt(int(ins.Pos), "index of non-array value")
		}
		d := dims[a.doff+int32(l)]
		idx := regs[r].i
		if idx < 0 || idx >= d {
			return 0, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, d)
		}
		off = off*d + idx
	}
	return a.base + uint64(off) - interp.HeapBase, nil
}

// idxNU resolves a fused rank-3+ access whose every level absint proved
// in bounds: the Horner walk runs with no rank or bounds checks.
func idxNU(dims []int64, fc *FuncCode, regs []val, ins *Ins) uint64 {
	a := regs[ins.A].a
	var off int64
	for l, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
		off = off*dims[a.doff+int32(l)] + regs[r].i
	}
	return a.base + uint64(off) - interp.HeapBase
}

func (m *machine) printPiece(s string) {
	if m.out == nil {
		return
	}
	if m.printedAny {
		fmt.Fprint(m.out, " ")
	}
	fmt.Fprint(m.out, s)
	m.printedAny = true
}

func (m *machine) nextRand() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}

func (m *machine) getRegs(fc *FuncCode) []val {
	n := int(fc.NumRegs)
	if k := len(m.regPool); k > 0 {
		r := m.regPool[k-1]
		m.regPool = m.regPool[:k-1]
		if cap(r) >= n {
			r = r[:n]
			clear(r[:fc.ConstBase])
			copy(r[fc.ConstBase:], fc.Consts)
			for _, gs := range fc.GlobalSeeds {
				r[gs.Reg] = m.globalVals[gs.Global]
			}
			return r
		}
	}
	r := make([]val, n)
	copy(r[fc.ConstBase:], fc.Consts)
	for _, gs := range fc.GlobalSeeds {
		r[gs.Reg] = m.globalVals[gs.Global]
	}
	return r
}

func (m *machine) putRegs(r []val) {
	if len(m.regPool) < 64 {
		m.regPool = append(m.regPool, r)
	}
}

// call executes fc. The structure mirrors interp's call loop exactly, with
// per-block batching layered on: block entry handles control-stack
// maintenance and the incoming edge's phi moves, then the block runs its
// fused range on execFast when it has one, its precomputed step count fits
// the budget and it crosses no liveness-poll boundary; anything else runs
// the block's exact range on execExact. In HCPA mode a fused run replays
// the edge's phis and its compacted body (the plain one when the runtime
// traces dependences) in one StepBlock; an exact run replays the edge's
// phis alone first.
func (m *machine) call(fc *FuncCode, args []val, argVecs []shadow.Vec, callerFS *kremlib.FrameState) (val, shadow.Vec, error) {
	regs := m.getRegs(fc)
	watermark := m.heapTop
	dimsMark := len(m.dimArena)

	profiled := m.cfg.Mode != interp.Plain
	var fs *kremlib.FrameState
	gpEntryDepth := len(m.gpStack)
	if m.cfg.Mode == interp.HCPA {
		fs = m.rt.NewFrame(fc.F, callerFS)
	}
	if profiled {
		m.regionEnter(fc.Root)
	}
	if fs != nil {
		for i, p := range fc.F.Params {
			if i < len(argVecs) && argVecs[i] != nil {
				fs.Regs.Set(p.ID, argVecs[i], len(argVecs[i]))
			}
		}
	}
	for i, p := range fc.F.Params {
		if i < len(args) {
			regs[p.ID] = args[i]
		}
	}

	var retVal val
	var retVec shadow.Vec
	var in *Edge
	bi := int32(0)
	for {
		b := &fc.Blocks[bi]
		if fs != nil {
			m.rt.AtBlock(fs, b.IR)
			m.rt.PopSameBranch(fs, b.IR)
		}
		var phiTpl kremlib.BlockTemplate
		if in != nil && in.NPhis > 0 {
			// Phi values are a parallel copy against the pre-state; the
			// shadow updates replay afterwards in phi order (they read only
			// shadow registers, so the split is exact). A single move
			// needs no scratch.
			moves := in.Moves
			if len(moves) == 1 {
				regs[moves[0].Dst] = regs[moves[0].Src]
			} else if len(moves) > 0 {
				if cap(m.phiScratch) < len(moves) {
					m.phiScratch = make([]val, len(moves))
				}
				tmp := m.phiScratch[:len(moves)]
				for k, mv := range moves {
					tmp[k] = regs[mv.Src]
				}
				for k, mv := range moves {
					regs[mv.Dst] = tmp[k]
				}
			}
			phiTpl = in.Tpl
			m.steps += uint64(in.NPhis)
		}

		n := uint64(b.NSteps)
		var edge int32
		var rv val
		var returned bool
		var err error
		if b.Fused &&
			m.steps+n <= m.limit &&
			(m.steps+n)>>limits.LiveCheckShift == m.steps>>limits.LiveCheckShift {
			m.steps += n
			if fs == nil {
				m.work += b.LatSum
			}
			edge, rv, returned, err = m.execFast(fc, regs, b, m.cfg.Mode == interp.Plain)
			if err == nil && fs != nil {
				body := b.Compact
				if m.cfg.Opts.TraceDeps {
					body = b.Tpl
				}
				brVec := m.rt.StepBlock(fs, phiTpl, body, m.addrs, b.LatSum)
				if b.HasPush {
					m.rt.PushBlockCtrl(fs, b.IR, b.PopAt, brVec)
				}
			}
		} else {
			if fs != nil && len(phiTpl) > 0 {
				m.rt.StepBlock(fs, phiTpl, nil, nil, 0)
			}
			edge, rv, returned, err = m.execExact(fc, regs, b, fs)
		}
		if err != nil {
			return val{}, nil, err
		}
		if returned {
			retVal = rv
			break
		}
		e := &fc.Edges[edge]
		if profiled {
			m.fireEdge(e)
		}
		in = e
		bi = e.Target
	}

	if fs != nil {
		retVec = fs.RetVec
	}
	if profiled {
		if m.cfg.Mode == interp.HCPA {
			m.rt.Unwind(fs.EntryDepth)
		} else {
			for len(m.gpStack) > gpEntryDepth {
				m.regionExit()
			}
		}
	}
	if m.heapTop != watermark {
		if m.rt != nil {
			m.rt.Mem().Free(interp.HeapBase+watermark, m.heapTop-watermark)
		}
		m.heapTop = watermark
	}
	m.dimArena = m.dimArena[:dimsMark]
	if fs != nil {
		m.rt.ReleaseFrame(fs)
	}
	m.putRegs(regs)
	return retVal, retVec, nil
}

// cmpRes reproduces the interpreter's comparison semantics (including its
// NaN behavior, which derives Gt/Ge from !lt/!eq rather than direct
// operators).
func cmpRes(lt, eq bool, k ir.BinKind) bool {
	switch k {
	case ir.BinEq:
		return eq
	case ir.BinNe:
		return !eq
	case ir.BinLt:
		return lt
	case ir.BinLe:
		return lt || eq
	case ir.BinGt:
		return !lt && !eq
	case ir.BinGe:
		return !lt
	}
	return false
}

// noteAddr appends a load/store address to the HCPA address buffer when
// track (HCPA mode) is set.
func (m *machine) noteAddr(track bool, addr uint64) {
	if track {
		m.addrs = append(m.addrs, addr)
	}
}

// execFast runs a block's fused range with no per-instruction checks and
// no profiling calls (step/work totals were batched by the caller; HCPA
// effects replay via StepBlock afterwards). In HCPA mode it records the
// effective address of every load and store in m.addrs, in execution
// order, for StepBlock to consume; the gate never lets a batched block
// cross a liveness poll, so the shadow-page cap sees the same page count
// at every poll as a per-instruction run. It returns the taken edge
// index, or returned=true with the return value.
//
// With chain set (plain mode only — no per-edge region events exist),
// taken edges whose target passes the same fast-path gate the caller
// would apply are followed without returning: phi moves, step/work
// accrual, and dispatch all stay inside this frame, so straight-line
// block sequences pay no per-block call overhead. The chain gate is
// strictly more conservative than the caller's (it spans the phi steps
// too), so any block it rejects simply takes the normal exit and the
// caller re-applies its exact gate.
func (m *machine) execFast(fc *FuncCode, regs []val, b *BBlock, chain bool) (int32, val, bool, error) {
	code := fc.Code
	heap := m.heap
	adims := m.dimArena
	pc := b.Start
	edge := int32(-1)
	track := m.rt != nil
	m.addrs = m.addrs[:0]
	for {
		ins := &code[pc]
		pc++
		switch ins.Op {
		case opAddI:
			regs[ins.Dst].i = regs[ins.A].i + regs[ins.B].i
		case opSubI:
			regs[ins.Dst].i = regs[ins.A].i - regs[ins.B].i
		case opMulI:
			regs[ins.Dst].i = regs[ins.A].i * regs[ins.B].i
		case opDivI:
			y := regs[ins.B].i
			if y == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "integer division by zero")
			}
			regs[ins.Dst].i = regs[ins.A].i / y
		case opRemI:
			y := regs[ins.B].i
			if y == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "integer modulo by zero")
			}
			regs[ins.Dst].i = regs[ins.A].i % y
		case opAndI:
			regs[ins.Dst].i = regs[ins.A].i & regs[ins.B].i
		case opOrI:
			regs[ins.Dst].i = regs[ins.A].i | regs[ins.B].i
		case opAddF:
			regs[ins.Dst].f = regs[ins.A].f + regs[ins.B].f
		case opSubF:
			regs[ins.Dst].f = regs[ins.A].f - regs[ins.B].f
		case opMulF:
			regs[ins.Dst].f = regs[ins.A].f * regs[ins.B].f
		case opDivF:
			regs[ins.Dst].f = regs[ins.A].f / regs[ins.B].f
		case opCmpI:
			x, y := regs[ins.A].i, regs[ins.B].i
			var r int64
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				r = 1
			}
			regs[ins.Dst].i = r
		case opCmpF:
			x, y := regs[ins.A].f, regs[ins.B].f
			var r int64
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				r = 1
			}
			regs[ins.Dst].i = r
		case opNegI:
			regs[ins.Dst].i = -regs[ins.A].i
		case opNegF:
			regs[ins.Dst].f = -regs[ins.A].f
		case opNot:
			regs[ins.Dst].i = 1 - regs[ins.A].i
		case opConvIF:
			regs[ins.Dst].f = float64(regs[ins.A].i)
		case opConvFI:
			regs[ins.Dst].i = int64(regs[ins.A].f)
		case opGlobal:
			// Globals are memory cells: only the descriptor is ever read,
			// so skip rewriting the scalar halves of the register.
			regs[ins.Dst].a = m.globalVals[ins.A].a
		case opView:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index of non-array value")
			}
			if idx < 0 || idx >= adims[a.doff] {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, adims[a.doff])
			}
			stride := int64(1)
			for k := a.doff + 1; k < a.doff+int32(a.rank); k++ {
				stride *= adims[k]
			}
			regs[ins.Dst].a = arr{base: a.base + uint64(idx*stride), doff: a.doff + 1, rank: a.rank - 1, elem: a.elem}
		case opLoadI:
			addr := regs[ins.A].a.base
			m.noteAddr(track, addr)
			regs[ins.Dst].i = int64(heap[addr-interp.HeapBase])
		case opLoadF:
			addr := regs[ins.A].a.base
			m.noteAddr(track, addr)
			regs[ins.Dst].f = math.Float64frombits(heap[addr-interp.HeapBase])
		case opStore:
			cell := regs[ins.A].a
			m.noteAddr(track, cell.base)
			v := regs[ins.B]
			var bits uint64
			if cell.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[cell.base-interp.HeapBase] = bits
		case opBrCmpI:
			x, y := regs[ins.A].i, regs[ins.B].i
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				edge = b.Edge0
			} else {
				edge = b.Edge1
			}
		case opBrCmpF:
			x, y := regs[ins.A].f, regs[ins.B].f
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				edge = b.Edge0
			} else {
				edge = b.Edge1
			}
		case opIncCmpBrI:
			x := regs[ins.A].i + regs[ins.B].i
			regs[ins.Dst].i = x
			if cmpRes(x < regs[ins.C].i, x == regs[ins.C].i, ir.BinKind(ins.Pos)) {
				edge = b.Edge0
			} else {
				edge = b.Edge1
			}
		case opDecCmpBrI:
			x := regs[ins.A].i - regs[ins.B].i
			regs[ins.Dst].i = x
			if cmpRes(x < regs[ins.C].i, x == regs[ins.C].i, ir.BinKind(ins.Pos)) {
				edge = b.Edge0
			} else {
				edge = b.Edge1
			}
		case opLdIdxI:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index of non-array value")
			}
			if idx < 0 || idx >= adims[a.doff] {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, adims[a.doff])
			}
			m.noteAddr(track, a.base+uint64(idx))
			regs[ins.Dst].i = int64(heap[a.base+uint64(idx)-interp.HeapBase])
		case opLdIdxF:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index of non-array value")
			}
			if idx < 0 || idx >= adims[a.doff] {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, adims[a.doff])
			}
			m.noteAddr(track, a.base+uint64(idx))
			regs[ins.Dst].f = math.Float64frombits(heap[a.base+uint64(idx)-interp.HeapBase])
		case opStIdx:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index of non-array value")
			}
			if idx < 0 || idx >= adims[a.doff] {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, adims[a.doff])
			}
			m.noteAddr(track, a.base+uint64(idx))
			v := regs[ins.C]
			var bits uint64
			if a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[a.base+uint64(idx)-interp.HeapBase] = bits
		case opLdIdx2I:
			// In-bounds rank-2 access is inlined; idx2 is the cold path
			// that reproduces the reference engine's errors.
			a := regs[ins.A].a
			i, j := regs[ins.B].i, regs[ins.C].i
			if a.rank >= 2 {
				d1 := adims[a.doff+1]
				if uint64(i) < uint64(adims[a.doff]) && uint64(j) < uint64(d1) {
					m.noteAddr(track, a.base+uint64(i*d1+j))
					regs[ins.Dst].i = int64(heap[a.base+uint64(i*d1+j)-interp.HeapBase])
					break
				}
			}
			cell, err := idx2(m, adims, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].i = int64(heap[cell])
		case opLdIdx2F:
			a := regs[ins.A].a
			i, j := regs[ins.B].i, regs[ins.C].i
			if a.rank >= 2 {
				d1 := adims[a.doff+1]
				if uint64(i) < uint64(adims[a.doff]) && uint64(j) < uint64(d1) {
					m.noteAddr(track, a.base+uint64(i*d1+j))
					regs[ins.Dst].f = math.Float64frombits(heap[a.base+uint64(i*d1+j)-interp.HeapBase])
					break
				}
			}
			cell, err := idx2(m, adims, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].f = math.Float64frombits(heap[cell])
		case opStIdx2:
			a := regs[ins.A].a
			i, j := regs[ins.B].i, regs[ins.C].i
			if a.rank >= 2 {
				d1 := adims[a.doff+1]
				if uint64(i) < uint64(adims[a.doff]) && uint64(j) < uint64(d1) {
					m.noteAddr(track, a.base+uint64(i*d1+j))
					v := regs[ins.Dst]
					var bits uint64
					if a.elem == uint8(ast.Float) {
						bits = math.Float64bits(v.f)
					} else {
						bits = uint64(v.i)
					}
					heap[a.base+uint64(i*d1+j)-interp.HeapBase] = bits
					break
				}
			}
			cell, err := idx2(m, adims, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			v := regs[ins.Dst]
			var bits uint64
			if a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[cell] = bits
		case opLdIdxNI:
			cell, err := idxN(m, adims, fc, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].i = int64(heap[cell])
		case opLdIdxNF:
			cell, err := idxN(m, adims, fc, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].f = math.Float64frombits(heap[cell])
		case opStIdxN:
			cell, err := idxN(m, adims, fc, regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			m.noteAddr(track, cell+interp.HeapBase)
			v := regs[ins.Dst]
			var bits uint64
			if regs[ins.A].a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[cell] = bits
		case opDivIU:
			// Unchecked variants: absint proved the fault condition
			// impossible (divisor nonzero / every index level in bounds),
			// so the checks and their error paths are elided entirely.
			regs[ins.Dst].i = regs[ins.A].i / regs[ins.B].i
		case opRemIU:
			regs[ins.Dst].i = regs[ins.A].i % regs[ins.B].i
		case opViewU:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			stride := int64(1)
			for k := a.doff + 1; k < a.doff+int32(a.rank); k++ {
				stride *= adims[k]
			}
			regs[ins.Dst].a = arr{base: a.base + uint64(idx*stride), doff: a.doff + 1, rank: a.rank - 1, elem: a.elem}
		case opLdIdxIU:
			addr := regs[ins.A].a.base + uint64(regs[ins.B].i)
			m.noteAddr(track, addr)
			regs[ins.Dst].i = int64(heap[addr-interp.HeapBase])
		case opLdIdxFU:
			addr := regs[ins.A].a.base + uint64(regs[ins.B].i)
			m.noteAddr(track, addr)
			regs[ins.Dst].f = math.Float64frombits(heap[addr-interp.HeapBase])
		case opStIdxU:
			a := regs[ins.A].a
			addr := a.base + uint64(regs[ins.B].i)
			m.noteAddr(track, addr)
			v := regs[ins.C]
			var bits uint64
			if a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[addr-interp.HeapBase] = bits
		case opLdIdx2IU:
			a := regs[ins.A].a
			cell := a.base + uint64(regs[ins.B].i*adims[a.doff+1]+regs[ins.C].i) - interp.HeapBase
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].i = int64(heap[cell])
		case opLdIdx2FU:
			a := regs[ins.A].a
			cell := a.base + uint64(regs[ins.B].i*adims[a.doff+1]+regs[ins.C].i) - interp.HeapBase
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].f = math.Float64frombits(heap[cell])
		case opStIdx2U:
			a := regs[ins.A].a
			cell := a.base + uint64(regs[ins.B].i*adims[a.doff+1]+regs[ins.C].i) - interp.HeapBase
			m.noteAddr(track, cell+interp.HeapBase)
			v := regs[ins.Dst]
			var bits uint64
			if a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[cell] = bits
		case opLdIdxNIU:
			cell := idxNU(adims, fc, regs, ins)
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].i = int64(heap[cell])
		case opLdIdxNFU:
			cell := idxNU(adims, fc, regs, ins)
			m.noteAddr(track, cell+interp.HeapBase)
			regs[ins.Dst].f = math.Float64frombits(heap[cell])
		case opStIdxNU:
			cell := idxNU(adims, fc, regs, ins)
			m.noteAddr(track, cell+interp.HeapBase)
			v := regs[ins.Dst]
			var bits uint64
			if regs[ins.A].a.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			heap[cell] = bits
		case opSqrt:
			regs[ins.Dst].f = math.Sqrt(regs[ins.A].f)
		case opFabs:
			regs[ins.Dst].f = math.Abs(regs[ins.A].f)
		case opFloor:
			regs[ins.Dst].f = math.Floor(regs[ins.A].f)
		case opExp:
			regs[ins.Dst].f = math.Exp(regs[ins.A].f)
		case opLog:
			regs[ins.Dst].f = math.Log(regs[ins.A].f)
		case opSin:
			regs[ins.Dst].f = math.Sin(regs[ins.A].f)
		case opCos:
			regs[ins.Dst].f = math.Cos(regs[ins.A].f)
		case opPow:
			regs[ins.Dst].f = math.Pow(regs[ins.A].f, regs[ins.B].f)
		case opAbsI:
			x := regs[ins.A].i
			if x < 0 {
				x = -x
			}
			regs[ins.Dst].i = x
		case opMinI:
			x, y := regs[ins.A].i, regs[ins.B].i
			if y < x {
				x = y
			}
			regs[ins.Dst].i = x
		case opMaxI:
			x, y := regs[ins.A].i, regs[ins.B].i
			if x < y {
				x = y
			}
			regs[ins.Dst].i = x
		case opMinF:
			x, y := regs[ins.A].f, regs[ins.B].f
			if !(x < y) {
				x = y
			}
			regs[ins.Dst].f = x
		case opMaxF:
			x, y := regs[ins.A].f, regs[ins.B].f
			if x < y {
				x = y
			}
			regs[ins.Dst].f = x
		case opRand:
			regs[ins.Dst].i = int64(m.nextRand() >> 1)
		case opFrand:
			regs[ins.Dst].f = float64(m.nextRand()>>11) / float64(1<<53)
		case opSrand:
			m.rng = uint64(regs[ins.A].i)*2862933555777941757 + 3037000493
		case opDim:
			a := regs[ins.A].a
			k := regs[ins.B].i
			if k < 0 || k >= int64(a.rank) {
				return 0, val{}, false, m.errAt(int(ins.Pos), "dim index %d out of range", k)
			}
			regs[ins.Dst].i = adims[a.doff+int32(k)]
		case opPrintStr:
			m.printPiece(fc.Strs[ins.A])
		case opPrintValI:
			m.printPiece(fmt.Sprintf("%d", regs[ins.A].i))
		case opPrintValF:
			m.printPiece(fmt.Sprintf("%g", regs[ins.A].f))
		case opPrintValB:
			m.printPiece(fmt.Sprintf("%t", regs[ins.A].i != 0))
		case opPrintNl:
			if m.out != nil {
				fmt.Fprintln(m.out)
			}
			m.printedAny = false
		case opBr:
			if regs[ins.A].i != 0 {
				edge = b.Edge0
			} else {
				edge = b.Edge1
			}
		case opJump:
			edge = b.Edge0
		case opIncJmpI:
			regs[ins.Dst].i = regs[ins.A].i + regs[ins.B].i
			edge = b.Edge0
		case opDecJmpI:
			regs[ins.Dst].i = regs[ins.A].i - regs[ins.B].i
			edge = b.Edge0
		case opRetVal:
			return -1, regs[ins.A], true, nil
		case opRetVoid:
			return -1, val{}, true, nil
		}
		if edge < 0 {
			continue
		}
		if !chain {
			return edge, val{}, false, nil
		}
		e := &fc.Edges[edge]
		nb := &fc.Blocks[e.Target]
		n := uint64(e.NPhis) + uint64(nb.NSteps)
		if !nb.Fused || m.steps+n > m.limit ||
			(m.steps+n)>>limits.LiveCheckShift != m.steps>>limits.LiveCheckShift {
			return edge, val{}, false, nil
		}
		if moves := e.Moves; len(moves) == 1 {
			regs[moves[0].Dst] = regs[moves[0].Src]
		} else if len(moves) > 0 {
			// Phi values are a parallel copy against the pre-state.
			if cap(m.phiScratch) < len(moves) {
				m.phiScratch = make([]val, len(moves))
			}
			tmp := m.phiScratch[:len(moves)]
			for k, mv := range moves {
				tmp[k] = regs[mv.Src]
			}
			for k, mv := range moves {
				regs[mv.Dst] = tmp[k]
			}
		}
		m.steps += n
		m.work += nb.LatSum
		b = nb
		pc = b.Start
		edge = -1
	}
}

// execExact runs a block's exact range with the reference engine's
// per-instruction accounting: every instruction pays the step increment,
// budget check, liveness poll, and work accrual in exactly
// internal/interp's order, so mid-block budget stops, heap-cap failures,
// runtime errors and partial results stay bit-identical. It is the VM's
// one per-instruction path, in every mode: blocks with calls or
// allocations always take it, fused blocks whenever their execution would
// cross the budget or a liveness poll. m.heap and m.dimArena are
// deliberately not cached in locals: opCall and opAlloc can grow or
// reallocate both.
//
// Under HCPA (fs set) it replays the block's template in runs: the
// entries of the instructions executed so far are pending, with their
// load/store addresses in m.addrs, and replay before each call (the call's
// own entry included, so its Step precedes the callee as in interp),
// before each liveness poll (the shadow-page cap must see every earlier
// store), before a limit stop (the partial result must include every
// earlier Step), and at the block's end, where a branch pushes its control
// entry. Runtime errors return no result, so they replay nothing.
func (m *machine) execExact(fc *FuncCode, regs []val, b *BBlock, fs *kremlib.FrameState) (int32, val, bool, error) {
	code := fc.Code
	lat := fc.Lat
	// Params lead the block as nops with no template entry, so pc's entry
	// is tpl[pc-tplBase]; seg is the first pending entry.
	tpl := b.Tpl
	tplBase := b.XEnd - int32(len(tpl))
	seg := int32(0)
	track := fs != nil
	if track {
		m.addrs = m.addrs[:0]
	}
	// The range ends in its terminator, which returns.
	for pc := b.XStart; ; pc++ {
		ins := &code[pc]
		m.steps++
		if m.steps > m.limit {
			m.replayExact(fs, tpl, &seg, pc-tplBase)
			return 0, val{}, false, limits.Budget(m.limit, m.steps)
		}
		if m.steps&limits.LiveCheckMask == 0 {
			m.replayExact(fs, tpl, &seg, pc-tplBase)
			if err := m.checkLive(); err != nil {
				return 0, val{}, false, err
			}
		}
		m.work += uint64(lat[pc])
		switch ins.Op {
		case opNop:
		case opAddI:
			regs[ins.Dst].i = regs[ins.A].i + regs[ins.B].i
		case opSubI:
			regs[ins.Dst].i = regs[ins.A].i - regs[ins.B].i
		case opMulI:
			regs[ins.Dst].i = regs[ins.A].i * regs[ins.B].i
		case opDivI:
			y := regs[ins.B].i
			if y == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "integer division by zero")
			}
			regs[ins.Dst].i = regs[ins.A].i / y
		case opRemI:
			y := regs[ins.B].i
			if y == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "integer modulo by zero")
			}
			regs[ins.Dst].i = regs[ins.A].i % y
		case opAndI:
			regs[ins.Dst].i = regs[ins.A].i & regs[ins.B].i
		case opOrI:
			regs[ins.Dst].i = regs[ins.A].i | regs[ins.B].i
		case opAddF:
			regs[ins.Dst].f = regs[ins.A].f + regs[ins.B].f
		case opSubF:
			regs[ins.Dst].f = regs[ins.A].f - regs[ins.B].f
		case opMulF:
			regs[ins.Dst].f = regs[ins.A].f * regs[ins.B].f
		case opDivF:
			regs[ins.Dst].f = regs[ins.A].f / regs[ins.B].f
		case opCmpI:
			x, y := regs[ins.A].i, regs[ins.B].i
			var r int64
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				r = 1
			}
			regs[ins.Dst].i = r
		case opCmpF:
			x, y := regs[ins.A].f, regs[ins.B].f
			var r int64
			if cmpRes(x < y, x == y, ir.BinKind(ins.C)) {
				r = 1
			}
			regs[ins.Dst].i = r
		case opNegI:
			regs[ins.Dst].i = -regs[ins.A].i
		case opNegF:
			regs[ins.Dst].f = -regs[ins.A].f
		case opNot:
			regs[ins.Dst].i = 1 - regs[ins.A].i
		case opConvIF:
			regs[ins.Dst].f = float64(regs[ins.A].i)
		case opConvFI:
			regs[ins.Dst].i = int64(regs[ins.A].f)
		case opGlobal:
			regs[ins.Dst] = m.globalVals[ins.A]
		case opView:
			a := regs[ins.A].a
			idx := regs[ins.B].i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index of non-array value")
			}
			if idx < 0 || idx >= m.dimArena[a.doff] {
				return 0, val{}, false, m.errAt(int(ins.Pos), "index %d out of range [0,%d)", idx, m.dimArena[a.doff])
			}
			stride := int64(1)
			for k := a.doff + 1; k < a.doff+int32(a.rank); k++ {
				stride *= m.dimArena[k]
			}
			regs[ins.Dst].a = arr{base: a.base + uint64(idx*stride), doff: a.doff + 1, rank: a.rank - 1, elem: a.elem}
		case opLoadI:
			m.noteAddr(track, regs[ins.A].a.base)
			regs[ins.Dst].i = int64(m.heap[regs[ins.A].a.base-interp.HeapBase])
		case opLoadF:
			m.noteAddr(track, regs[ins.A].a.base)
			regs[ins.Dst].f = math.Float64frombits(m.heap[regs[ins.A].a.base-interp.HeapBase])
		case opStore:
			cell := regs[ins.A].a
			m.noteAddr(track, cell.base)
			v := regs[ins.B]
			var bits uint64
			if cell.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			m.heap[cell.base-interp.HeapBase] = bits
		case opCall:
			var call *ir.Instr
			if track {
				// Exact bytecode is 1:1 with the block body, the tail of
				// the IR block.
				call = b.IR.Instrs[len(b.IR.Instrs)-int(b.XEnd-pc)]
				m.replayExact(fs, tpl, &seg, pc-tplBase+1)
			}
			if err := m.callOp(fc, regs, ins, call, fs); err != nil {
				return 0, val{}, false, err
			}
			if track {
				// The callee's blocks reused the address buffer.
				m.addrs = m.addrs[:0]
			}
		case opAlloc:
			v, err := m.allocOp(fc, regs, ins)
			if err != nil {
				m.replayExact(fs, tpl, &seg, pc-tplBase)
				return 0, val{}, false, err
			}
			regs[ins.Dst] = v
		case opSqrt:
			regs[ins.Dst].f = math.Sqrt(regs[ins.A].f)
		case opFabs:
			regs[ins.Dst].f = math.Abs(regs[ins.A].f)
		case opFloor:
			regs[ins.Dst].f = math.Floor(regs[ins.A].f)
		case opExp:
			regs[ins.Dst].f = math.Exp(regs[ins.A].f)
		case opLog:
			regs[ins.Dst].f = math.Log(regs[ins.A].f)
		case opSin:
			regs[ins.Dst].f = math.Sin(regs[ins.A].f)
		case opCos:
			regs[ins.Dst].f = math.Cos(regs[ins.A].f)
		case opPow:
			regs[ins.Dst].f = math.Pow(regs[ins.A].f, regs[ins.B].f)
		case opAbsI:
			x := regs[ins.A].i
			if x < 0 {
				x = -x
			}
			regs[ins.Dst].i = x
		case opMinI:
			x, y := regs[ins.A].i, regs[ins.B].i
			if y < x {
				x = y
			}
			regs[ins.Dst].i = x
		case opMaxI:
			x, y := regs[ins.A].i, regs[ins.B].i
			if x < y {
				x = y
			}
			regs[ins.Dst].i = x
		case opMinF:
			x, y := regs[ins.A].f, regs[ins.B].f
			if !(x < y) {
				x = y
			}
			regs[ins.Dst].f = x
		case opMaxF:
			x, y := regs[ins.A].f, regs[ins.B].f
			if x < y {
				x = y
			}
			regs[ins.Dst].f = x
		case opRand:
			regs[ins.Dst].i = int64(m.nextRand() >> 1)
		case opFrand:
			regs[ins.Dst].f = float64(m.nextRand()>>11) / float64(1<<53)
		case opSrand:
			m.rng = uint64(regs[ins.A].i)*2862933555777941757 + 3037000493
		case opDim:
			a := regs[ins.A].a
			k := regs[ins.B].i
			if k < 0 || k >= int64(a.rank) {
				return 0, val{}, false, m.errAt(int(ins.Pos), "dim index %d out of range", k)
			}
			regs[ins.Dst].i = m.dimArena[a.doff+int32(k)]
		case opPrintStr:
			m.printPiece(fc.Strs[ins.A])
		case opPrintValI:
			m.printPiece(fmt.Sprintf("%d", regs[ins.A].i))
		case opPrintValF:
			m.printPiece(fmt.Sprintf("%g", regs[ins.A].f))
		case opPrintValB:
			m.printPiece(fmt.Sprintf("%t", regs[ins.A].i != 0))
		case opPrintNl:
			if m.out != nil {
				fmt.Fprintln(m.out)
			}
			m.printedAny = false
		case opBr:
			if track {
				m.endExact(fs, b, &seg)
			}
			if regs[ins.A].i != 0 {
				return b.Edge0, val{}, false, nil
			}
			return b.Edge1, val{}, false, nil
		case opJump:
			if track {
				m.endExact(fs, b, &seg)
			}
			return b.Edge0, val{}, false, nil
		case opRetVal:
			if track {
				m.endExact(fs, b, &seg)
			}
			return -1, regs[ins.A], true, nil
		case opRetVoid:
			if track {
				m.endExact(fs, b, &seg)
			}
			return -1, val{}, true, nil
		default:
			// Unreachable for verified code (exact ranges are unfused).
			return 0, val{}, false, m.errAt(int(ins.Pos), "unknown opcode %v", ins.Op)
		}
	}
}

// replayExact replays an exact run's pending plain template entries
// tpl[*seg:to] and the addresses buffered for them (HCPA only; a no-op
// when fs is nil or nothing is pending). A plain entry's Lat is its
// instruction's latency, so the run's work is their sum.
func (m *machine) replayExact(fs *kremlib.FrameState, tpl kremlib.BlockTemplate, seg *int32, to int32) shadow.Vec {
	if fs == nil || to <= *seg {
		return nil
	}
	run := tpl[*seg:to]
	var work uint64
	for i := range run {
		work += uint64(run[i].Lat)
	}
	out := m.rt.StepBlock(fs, nil, run, m.addrs, work)
	*seg = to
	m.addrs = m.addrs[:0]
	return out
}

// endExact replays the rest of an exact run's template at its end and
// pushes the branch's control entry, as the fast path does.
func (m *machine) endExact(fs *kremlib.FrameState, b *BBlock, seg *int32) {
	brVec := m.replayExact(fs, b.Tpl, seg, int32(len(b.Tpl)))
	if b.HasPush {
		m.rt.PushBlockCtrl(fs, b.IR, b.PopAt, brVec)
	}
}

// callOp is execExact's OpCall: argument registers come precompiled in
// IdxRegs, the callee by function index; call is the IR instruction
// (consulted under HCPA only).
func (m *machine) callOp(fc *FuncCode, regs []val, ins *Ins, call *ir.Instr, fs *kremlib.FrameState) error {
	if cap(m.argScratch) < int(ins.C) {
		m.argScratch = make([]val, ins.C)
	}
	args := m.argScratch[:ins.C]
	for i, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
		args[i] = regs[r]
	}
	ret, err := m.invoke(ins.A, call, args, fs)
	if err != nil {
		return err
	}
	regs[ins.Dst] = ret
	return nil
}

// allocOp is execExact's OpAllocArray: same dimension validation order,
// error text, and heap-cap behavior as the reference interpreter.
func (m *machine) allocOp(fc *FuncCode, regs []val, ins *Ins) (val, error) {
	doff := int32(len(m.dimArena))
	total := int64(1)
	for i, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
		d := regs[r].i
		if d <= 0 {
			m.dimArena = m.dimArena[:doff]
			return val{}, m.errAt(int(ins.Pos), "array dimension %d must be positive, got %d", i, d)
		}
		m.dimArena = append(m.dimArena, d)
		total *= d
		if total > interp.MaxArrayElems {
			m.dimArena = m.dimArena[:doff]
			return val{}, m.errAt(int(ins.Pos), "array too large (%d elements)", total)
		}
	}
	base, err := m.alloc(total)
	if err != nil {
		m.dimArena = m.dimArena[:doff]
		return val{}, err
	}
	return val{a: arr{base: base, doff: doff, rank: int16(ins.C), elem: uint8(ins.A)}}, nil
}

// invoke runs the call instruction call to function callee (a Mod.Funcs
// index) with its arguments gathered in args. Under HCPA (fs set; the call's own Step has
// already run) it follows interp's call protocol: the argument vectors
// seed the callee frame, the incremental cache may replay the extent
// (TrySkip) or record it (BeginRecord/EndRecord), and FinishCall merges
// the return vector. The callee compiles only if it actually runs.
func (m *machine) invoke(callee int32, call *ir.Instr, args []val, fs *kremlib.FrameState) (val, error) {
	if fs == nil {
		ret, _, err := m.call(m.p.Func(callee), args, nil, nil)
		return ret, err
	}
	argVecs := m.vecScratch[:0]
	for _, a := range call.Args {
		var v shadow.Vec
		if ai, ok := a.(*ir.Instr); ok {
			v = fs.Regs.Get(ai.ID)
		}
		argVecs = append(argVecs, v)
	}
	m.vecScratch = argVecs
	var rec *inccache.Recording
	sess := m.cfg.Cache
	if sess != nil && sess.Cacheable(call.Callee) {
		bits := m.argBits(call.Callee, args)
		if hit, ok := sess.TrySkip(call.Callee, call, fs, bits, argVecs, m.steps, m.limit, m.heapTop, m.heapCap); ok {
			m.steps += hit.Steps
			if p := m.heapTop + hit.PeakHeap; p > m.heapPeak {
				m.heapPeak = p
			}
			return vmValFromBits(call.Callee.Ret, hit.RetBits), nil
		}
		rec = sess.BeginRecord(call.Callee, bits, m.steps)
	}
	savedPeak := m.heapPeak
	if rec != nil {
		// Track the extent's own heap high-water mark so the record can
		// reproduce heap-cap failures exactly on replay.
		m.heapPeak = m.heapTop
	}
	ret, retVec, err := m.call(m.p.Func(callee), args, argVecs, fs)
	if err != nil {
		return val{}, err
	}
	if rec != nil {
		sess.EndRecord(rec, m.steps, vmRetBits(call.Callee.Ret, ret), retVec, m.heapPeak-m.heapTop)
		if savedPeak > m.heapPeak {
			m.heapPeak = savedPeak
		}
	}
	m.rt.FinishCall(fs, call, retVec)
	return ret, nil
}

// argBits canonicalizes scalar call arguments for cache keying into the
// machine's reusable buffer, bit-for-bit the reference interpreter's
// callArgBits.
func (m *machine) argBits(f *ir.Func, args []val) []uint64 {
	bits := m.bitScratch[:0]
	for i, p := range f.Params {
		var b uint64
		if i < len(args) {
			if p.Typ.Elem == ast.Float {
				b = math.Float64bits(args[i].f)
			} else {
				b = uint64(args[i].i)
			}
		}
		bits = append(bits, b)
	}
	m.bitScratch = bits
	return bits
}

func vmValFromBits(ret ast.BasicKind, bits uint64) val {
	if ret == ast.Float {
		return val{f: math.Float64frombits(bits)}
	}
	return val{i: int64(bits)}
}

func vmRetBits(ret ast.BasicKind, v val) uint64 {
	if ret == ast.Float {
		return math.Float64bits(v.f)
	}
	return uint64(v.i)
}
