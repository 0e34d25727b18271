package bytecode

import (
	"fmt"
	"math"

	"kremlin/internal/ast"
	"kremlin/internal/inccache"
	"kremlin/internal/interp"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
	"kremlin/internal/shadow"
)

// execSlow runs one block's body per IR instruction, mirroring the
// reference interpreter statement for statement: the step counter, budget
// check, liveness poll, work accrual, KremLib Step placement, and error
// text/position all match interp exactly. Blocks take this path when they
// have no bytecode (unknown builtins, degenerate control flow), or when
// they are fast blocks and the remaining budget or an imminent liveness
// poll demands per-instruction checks. Exact blocks never take it: they
// run on execExact in every mode.
//
// The final value of next (last branch executed wins, as in the reference
// loop) maps onto the block's precompiled edges; a nil next ends the
// function.
func (m *machine) execSlow(fc *FuncCode, regs []val, b *BBlock, fs *kremlib.FrameState) (int32, val, bool, error) {
	blk := b.IR
	var next *ir.Block
	var retVal val
	returned := false
	for _, ins := range blk.Instrs[len(phisOf(blk)):] {
		m.steps++
		m.slowSteps++
		if m.steps > m.limit {
			return 0, val{}, false, limits.Budget(m.limit, m.steps)
		}
		if m.steps&limits.LiveCheckMask == 0 {
			if err := m.checkLive(); err != nil {
				return 0, val{}, false, err
			}
		}
		if m.cfg.Mode != interp.HCPA {
			m.work += ins.Latency()
		}

		switch ins.Op {
		case ir.OpParam:
			// Value seeded at call; shadow vec seeded at frame setup.
			continue
		case ir.OpBin:
			v, err := m.binop(regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			regs[ins.ID] = v
		case ir.OpNeg:
			x := m.value(regs, ins.Args[0])
			if ins.Typ.Elem == ast.Float {
				regs[ins.ID] = val{f: -x.f}
			} else {
				regs[ins.ID] = val{i: -x.i}
			}
		case ir.OpNot:
			x := m.value(regs, ins.Args[0])
			regs[ins.ID] = val{i: 1 - x.i}
		case ir.OpConvert:
			x := m.value(regs, ins.Args[0])
			if ins.Typ.Elem == ast.Float {
				regs[ins.ID] = val{f: float64(x.i)}
			} else {
				regs[ins.ID] = val{i: int64(x.f)}
			}
		case ir.OpAllocArray:
			v, err := m.allocArray(regs, ins)
			if err != nil {
				return 0, val{}, false, err
			}
			regs[ins.ID] = v
		case ir.OpGlobal:
			regs[ins.ID] = m.globalVals[ins.Global.Index]
		case ir.OpView:
			a := m.value(regs, ins.Args[0]).a
			idx := m.value(regs, ins.Args[1]).i
			if a.rank == 0 {
				return 0, val{}, false, m.errAt(ins.Pos, "index of non-array value")
			}
			if idx < 0 || idx >= m.dimArena[a.doff] {
				return 0, val{}, false, m.errAt(ins.Pos, "index %d out of range [0,%d)", idx, m.dimArena[a.doff])
			}
			stride := int64(1)
			for k := a.doff + 1; k < a.doff+int32(a.rank); k++ {
				stride *= m.dimArena[k]
			}
			regs[ins.ID] = val{a: arr{base: a.base + uint64(idx*stride), doff: a.doff + 1, rank: a.rank - 1, elem: a.elem}}
		case ir.OpLoad:
			cell := m.value(regs, ins.Args[0]).a
			bits := m.heap[cell.base-interp.HeapBase]
			if ins.Typ.Elem == ast.Float {
				regs[ins.ID] = val{f: math.Float64frombits(bits)}
			} else {
				regs[ins.ID] = val{i: int64(bits)}
			}
			if fs != nil {
				m.rt.Step(fs, ins, cell.base, -1)
			}
			continue
		case ir.OpStore:
			cell := m.value(regs, ins.Args[0]).a
			v := m.value(regs, ins.Args[1])
			var bits uint64
			if cell.elem == uint8(ast.Float) {
				bits = math.Float64bits(v.f)
			} else {
				bits = uint64(v.i)
			}
			m.heap[cell.base-interp.HeapBase] = bits
			if fs != nil {
				m.rt.Step(fs, ins, cell.base, -1)
			}
			continue
		case ir.OpCall:
			if err := m.doCall(regs, ins, fs); err != nil {
				return 0, val{}, false, err
			}
			continue
		case ir.OpBuiltin:
			if err := m.builtin(regs, ins); err != nil {
				return 0, val{}, false, err
			}
		case ir.OpBr:
			cond := m.value(regs, ins.Args[0])
			if cond.i != 0 {
				next = ins.Targets[0]
			} else {
				next = ins.Targets[1]
			}
			if fs != nil {
				vec := m.rt.Step(fs, ins, 0, -1)
				if b.HasPush {
					m.rt.PushCtrl(fs, blk, b.PopAt, vec)
				}
			}
			continue
		case ir.OpJump:
			next = ins.Targets[0]
			if fs != nil {
				m.rt.Step(fs, ins, 0, -1)
			}
			continue
		case ir.OpRet:
			if len(ins.Args) > 0 {
				retVal = m.value(regs, ins.Args[0])
			}
			returned = true
			if fs != nil {
				m.rt.Step(fs, ins, 0, -1)
			}
		default:
			return 0, val{}, false, m.errAt(ins.Pos, "unknown opcode %v", ins.Op)
		}
		if fs != nil && ins.Op != ir.OpRet {
			m.rt.Step(fs, ins, 0, -1)
		}
		if returned {
			break
		}
	}

	if returned {
		return -1, retVal, true, nil
	}
	if next == nil {
		return -1, val{}, false, nil
	}
	t := blk.Terminator()
	if t != nil && len(t.Targets) > 0 {
		if next == t.Targets[0] {
			return b.Edge0, val{}, false, nil
		}
		if t.Op == ir.OpBr && next == t.Targets[1] {
			return b.Edge1, val{}, false, nil
		}
	}
	// Unreachable for verified code (the verifier rejects branches that are
	// not the block's terminator); degrade to ending the function.
	return -1, val{}, false, nil
}

// doCall is execSlow's OpCall: the call's own Step, then invoke.
func (m *machine) doCall(regs []val, ins *ir.Instr, fs *kremlib.FrameState) error {
	if cap(m.argScratch) < len(ins.Args) {
		m.argScratch = make([]val, len(ins.Args))
	}
	args := m.argScratch[:len(ins.Args)]
	for i, a := range ins.Args {
		args[i] = m.value(regs, a)
	}
	if fs != nil {
		m.rt.Step(fs, ins, 0, -1)
	}
	ret, err := m.invoke(m.p.index[ins.Callee], ins, args, fs)
	if err != nil {
		return err
	}
	regs[ins.ID] = ret
	return nil
}

// invoke runs the call instruction call to function callee (a Mod.Funcs
// index) with its arguments gathered in args — the one call path of
// execExact and execSlow. Under HCPA (fs set; the call's own Step has
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

func (m *machine) value(regs []val, v ir.Value) val {
	switch v := v.(type) {
	case *ir.Instr:
		return regs[v.ID]
	case *ir.ConstInt:
		return val{i: v.V}
	case *ir.ConstFloat:
		return val{f: v.V}
	case *ir.ConstBool:
		if v.V {
			return val{i: 1}
		}
		return val{}
	}
	return val{}
}

func (m *machine) binop(regs []val, ins *ir.Instr) (val, error) {
	x := m.value(regs, ins.Args[0])
	y := m.value(regs, ins.Args[1])
	isFloat := ins.Args[0].Type().Elem == ast.Float
	switch ins.Bin {
	case ir.BinAdd:
		if isFloat {
			return val{f: x.f + y.f}, nil
		}
		return val{i: x.i + y.i}, nil
	case ir.BinSub:
		if isFloat {
			return val{f: x.f - y.f}, nil
		}
		return val{i: x.i - y.i}, nil
	case ir.BinMul:
		if isFloat {
			return val{f: x.f * y.f}, nil
		}
		return val{i: x.i * y.i}, nil
	case ir.BinDiv:
		if isFloat {
			return val{f: x.f / y.f}, nil
		}
		if y.i == 0 {
			return val{}, m.errAt(ins.Pos, "integer division by zero")
		}
		return val{i: x.i / y.i}, nil
	case ir.BinRem:
		if y.i == 0 {
			return val{}, m.errAt(ins.Pos, "integer modulo by zero")
		}
		return val{i: x.i % y.i}, nil
	case ir.BinAnd:
		return val{i: x.i & y.i}, nil
	case ir.BinOr:
		return val{i: x.i | y.i}, nil
	}
	var lt, eq bool
	if isFloat {
		lt, eq = x.f < y.f, x.f == y.f
	} else {
		lt, eq = x.i < y.i, x.i == y.i
	}
	if cmpRes(lt, eq, ins.Bin) {
		return val{i: 1}, nil
	}
	return val{}, nil
}

func (m *machine) allocArray(regs []val, ins *ir.Instr) (val, error) {
	doff := int32(len(m.dimArena))
	total := int64(1)
	for i, a := range ins.Args {
		d := m.value(regs, a).i
		if d <= 0 {
			m.dimArena = m.dimArena[:doff]
			return val{}, m.errAt(ins.Pos, "array dimension %d must be positive, got %d", i, d)
		}
		m.dimArena = append(m.dimArena, d)
		total *= d
		if total > interp.MaxArrayElems {
			m.dimArena = m.dimArena[:doff]
			return val{}, m.errAt(ins.Pos, "array too large (%d elements)", total)
		}
	}
	base, err := m.alloc(total)
	if err != nil {
		m.dimArena = m.dimArena[:doff]
		return val{}, err
	}
	return val{a: arr{base: base, doff: doff, rank: int16(len(ins.Args)), elem: uint8(ins.Typ.Elem)}}, nil
}

func (m *machine) builtin(regs []val, ins *ir.Instr) error {
	arg := func(i int) val { return m.value(regs, ins.Args[i]) }
	switch ins.Builtin {
	case "sqrt":
		regs[ins.ID] = val{f: math.Sqrt(arg(0).f)}
	case "fabs":
		regs[ins.ID] = val{f: math.Abs(arg(0).f)}
	case "floor":
		regs[ins.ID] = val{f: math.Floor(arg(0).f)}
	case "exp":
		regs[ins.ID] = val{f: math.Exp(arg(0).f)}
	case "log":
		regs[ins.ID] = val{f: math.Log(arg(0).f)}
	case "sin":
		regs[ins.ID] = val{f: math.Sin(arg(0).f)}
	case "cos":
		regs[ins.ID] = val{f: math.Cos(arg(0).f)}
	case "pow":
		regs[ins.ID] = val{f: math.Pow(arg(0).f, arg(1).f)}
	case "abs":
		x := arg(0).i
		if x < 0 {
			x = -x
		}
		regs[ins.ID] = val{i: x}
	case "min", "max":
		x, y := arg(0), arg(1)
		if ins.Typ.Elem == ast.Float {
			if (ins.Builtin == "min") == (x.f < y.f) {
				regs[ins.ID] = x
			} else {
				regs[ins.ID] = y
			}
		} else {
			if (ins.Builtin == "min") == (x.i < y.i) {
				regs[ins.ID] = x
			} else {
				regs[ins.ID] = y
			}
		}
	case "rand":
		regs[ins.ID] = val{i: int64(m.nextRand() >> 1)}
	case "frand":
		regs[ins.ID] = val{f: float64(m.nextRand()>>11) / float64(1<<53)}
	case "srand":
		m.rng = uint64(arg(0).i)*2862933555777941757 + 3037000493
	case "dim":
		a := arg(0).a
		k := arg(1).i
		if k < 0 || k >= int64(a.rank) {
			return m.errAt(ins.Pos, "dim index %d out of range", k)
		}
		regs[ins.ID] = val{i: m.dimArena[a.doff+int32(k)]}
	case "printstr":
		m.printPiece(ins.Aux)
	case "printval":
		v := arg(0)
		switch ins.Args[0].Type().Elem {
		case ast.Float:
			m.printPiece(fmt.Sprintf("%g", v.f))
		case ast.Bool:
			m.printPiece(fmt.Sprintf("%t", v.i != 0))
		default:
			m.printPiece(fmt.Sprintf("%d", v.i))
		}
	case "printnl":
		if m.out != nil {
			fmt.Fprintln(m.out)
		}
		m.printedAny = false
	default:
		return m.errAt(ins.Pos, "unknown builtin %q", ins.Builtin)
	}
	return nil
}
