// Block-batched HCPA updates: the bytecode VM replaces the per-instruction
// Step calls of a basic block, and of the phis of the CFG edge that enters
// it, with one replay of precompiled templates. Within a block neither the
// region stack, the tags, nor the control-dependence stack can change —
// region events fire only on CFG edges, and PushCtrl only at the terminator
// — so the control baseline is resolved once per block entry and every
// instruction's availability-time fold replayed from compile-time-resolved
// register indices. Calls inside a block run in their own frame and leave
// the region stack as they found it, so the VM replays a call-containing
// (exact) block as runs of its template cut at each call. The result is
// bit-identical to issuing the Steps one by one.
//
// The address-buffer contract: the VM records the effective address of
// every load and store the replayed instructions executed, in execution
// order, and passes the buffer to StepBlock. The template's TplLoad and
// TplStore entries appear in the same order (both follow the IR's
// instruction order), so the k-th memory entry of the replayed range
// consumes the k-th buffered address.
//
// The operand-before-Sized rule: each entry fetches its operand vectors —
// for the fold and for the dependence tracer — before it sizes its
// destination register. A phi can name itself (a value carried unchanged
// round a back edge), and shadow.RegisterTable.Sized grows a vector in
// place over stale entries, so sizing first would let the phi read levels
// its old value never had.
package kremlib

import (
	"kremlin/internal/ir"
	"kremlin/internal/shadow"
)

// TplKind selects the side effect of one template instruction beyond the
// register fold.
type TplKind uint8

const (
	// TplPlain folds the operand vectors and stores the result at Res.
	TplPlain TplKind = iota
	// TplPhiReduction is a reduction phi: the fold is TplPlain's; only the
	// dependence tracer skips the operand (the carried accumulator is a
	// broken dependence).
	TplPhiReduction
	// TplLoad additionally folds the shadow-memory slot of the next
	// buffered address; the dependence tracer notes that slot.
	TplLoad
	// TplLoadReduction is a reduction-marked load: the accumulator's
	// broken old-value read. The fold is TplLoad's; only the tracer skips
	// the slot.
	TplLoadReduction
	// TplStore writes the result vector to the next buffered address.
	TplStore
	// TplRet captures the result vector as the frame's RetVec.
	TplRet
	// TplRand (rand, frand, srand) also folds the runtime's RNG vector and
	// then replaces it with the result.
	TplRand
	// TplPrint (printval, printstr, printnl) also folds the runtime's IO
	// vector and then replaces it with the result.
	TplPrint
)

// TplIns is one instruction of a template: fold the availability vectors
// of its operands (shadow register IDs; constants and broken dependencies
// are dropped at compile time) — and, for loads, the shadow slot of the
// loaded address — over the control baseline, add Lat, raise the per-level
// critical path, and store the result at register Res (-1 for instructions
// that produce no register value: stores, returns, prints and branches).
//
// Operands are stored inline so the replay loop chases no slice pointer:
// N is the operand count saturated at 3, A and B hold the first two
// operands, and Args holds every operand only when there are three or
// more (N == 3).
type TplIns struct {
	Res  int32
	Kind TplKind
	N    uint8
	A, B int32
	Lat  uint64
	Args []int32
}

// Operands returns the entry's operand IDs; buf backs the result when the
// operands are stored inline.
func (ti *TplIns) Operands(buf *[2]int32) []int32 {
	if ti.N > 2 {
		return ti.Args
	}
	buf[0], buf[1] = ti.A, ti.B
	return buf[:ti.N]
}

// BlockTemplate is the precompiled HCPA effect of a run of Steps: the body
// of one basic block (params excluded), or the phis one CFG edge steps at
// its target.
type BlockTemplate []TplIns

func newTplIns(res int32, kind TplKind, lat uint64, ops []int32) TplIns {
	ti := TplIns{Res: res, Kind: kind, Lat: lat}
	switch len(ops) {
	case 0:
	case 1:
		ti.N, ti.A = 1, ops[0]
	case 2:
		ti.N, ti.A, ti.B = 2, ops[0], ops[1]
	default:
		ti.N, ti.A, ti.B = 3, ops[0], ops[1]
		ti.Args = append([]int32(nil), ops...)
	}
	return ti
}

// BlockTemplateOf builds the template of a block body — the instructions
// after its phis — with Step's rules: one entry per stepped instruction
// (params are never stepped), operands resolved to register IDs with
// constants and the broken (induction/reduction) operand dropped. A load
// always folds its address operand. Loads, stores, returns and the rand
// and print builtins carry their side effect in Kind.
func BlockTemplateOf(body []*ir.Instr) BlockTemplate {
	tpl := make(BlockTemplate, 0, len(body))
	var ops []int32
	for _, ins := range body {
		if ins.Op == ir.OpParam {
			continue
		}
		kind := TplPlain
		res := int32(-1)
		if ins.HasResult() {
			res = int32(ins.ID)
		}
		brk := ins.BreakArg
		switch ins.Op {
		case ir.OpLoad:
			brk = -1
			kind = TplLoad
			if ins.Reduction {
				kind = TplLoadReduction
			}
		case ir.OpStore:
			kind, res = TplStore, -1
		case ir.OpRet:
			kind, res = TplRet, -1
		case ir.OpBuiltin:
			switch ins.Builtin {
			case "rand", "frand", "srand":
				kind = TplRand
			case "printval", "printstr", "printnl":
				kind, res = TplPrint, -1
			}
		}
		ops = ops[:0]
		for i, a := range ins.Args {
			if i == brk {
				continue
			}
			if ai, ok := a.(*ir.Instr); ok {
				ops = append(ops, int32(ai.ID))
			}
		}
		tpl = append(tpl, newTplIns(res, kind, ins.Latency(), ops))
	}
	return tpl
}

// EdgeTemplateOf builds the template of the phis a CFG edge steps at its
// target: one entry per phi, Res the phi's ID, and the operand selected by
// predIdx unless the phi is an induction phi (its carried dependence is
// broken), predIdx is out of range, or the operand is a constant. A
// reduction phi's entry is TplPhiReduction.
func EdgeTemplateOf(phis []*ir.Instr, predIdx int) BlockTemplate {
	tpl := make(BlockTemplate, 0, len(phis))
	var ops []int32
	for _, phi := range phis {
		ops = ops[:0]
		if !phi.Induction && predIdx >= 0 && predIdx < len(phi.Args) {
			if ai, ok := phi.Args[predIdx].(*ir.Instr); ok {
				ops = append(ops, int32(ai.ID))
			}
		}
		kind := TplPlain
		if phi.Reduction {
			kind = TplPhiReduction
		}
		tpl = append(tpl, newTplIns(int32(phi.ID), kind, phi.Latency(), ops))
	}
	return tpl
}

// StepBlock replays edge — the phis of the CFG edge just taken — and then
// body — the block's instructions, or a run of them — in a single call.
// Either may be empty. addrs holds the effective addresses of body's loads
// and stores in execution order (see the package comment). It is
// observably identical to calling Step for each phi and then each body
// instruction in order: the control baseline is resolved once (legal
// because nothing between block entry and the terminator can change the
// region stack, tags, or control stack), and each instruction makes one
// fused pass over the tracked levels that folds the baseline, its operands
// and (for loads) its memory slot with the tag-mismatch-is-zero rule, adds
// its latency, writes the result straight into its destination, and raises
// the region stack's critical path in place. The returned vector is the
// last instruction's (the terminator's, for Br-ended blocks — see
// PushBlockCtrl); it is valid until the next Step/StepBlock.
func (rt *Runtime) StepBlock(fs *FrameState, edge, body BlockTemplate, addrs []uint64) shadow.Vec {
	d := rt.level()
	lo := rt.lowLevel()
	base := rt.blockBaseline(fs, d, lo)
	var out shadow.Vec
	if len(edge) > 0 {
		out = rt.replay(fs, edge, base, nil, d, lo)
	}
	if len(body) > 0 {
		out = rt.replay(fs, body, base, addrs, d, lo)
	}
	return out
}

// replay runs tpl's entries over the resolved baseline.
func (rt *Runtime) replay(fs *FrameState, tpl BlockTemplate, base shadow.Vec, addrs []uint64, d, lo int) shadow.Vec {
	tags := rt.tags[:d]
	peak := rt.maxTime[:d]
	regs := fs.Regs
	tracing := rt.carried != nil
	var out shadow.Vec
	var work uint64
	next := 0
	for i := range tpl {
		ti := &tpl[i]
		lat := ti.Lat
		work += lat
		// Operands first (the operand-before-Sized rule).
		var a, b shadow.Vec
		if ti.N > 0 {
			a = regs.Get(int(ti.A))
			if ti.N > 1 {
				b = regs.Get(int(ti.B))
			}
		}
		switch ti.Kind {
		case TplPlain, TplPhiReduction:
			if tracing {
				rt.traceTpl(ti, regs, a, b, shadow.Slot{}, nil)
			}
			out = rt.dest(regs, ti.Res, d, lo)
			switch ti.N {
			case 0:
				step0(out, base, tags, peak, lat, lo)
			case 1:
				step1(out, base, tags, peak, a, lat, lo)
			case 2:
				step2(out, base, tags, peak, a, b, lat, lo)
			default:
				stepN(out, base, tags, peak, regs, ti.Args, nil, lat, lo)
			}
		case TplLoad, TplLoadReduction:
			s := rt.mem.Load(addrs[next])
			next++
			if tracing {
				rt.traceTpl(ti, regs, a, b, s, nil)
			}
			out = rt.dest(regs, ti.Res, d, lo)
			stepLoad(out, base, tags, peak, a, s, lat, lo)
		default:
			out = rt.replayEffect(fs, ti, a, b, base, addrs, next, d, lo)
			if ti.Kind == TplStore {
				next++
			}
		}
	}
	rt.totalWork += work
	return out
}

// dest returns the vector an entry writes — its register, sized to the
// window, or the scratch vector — with the levels below the window zeroed.
func (rt *Runtime) dest(regs *shadow.RegisterTable, res int32, d, lo int) shadow.Vec {
	var out shadow.Vec
	if res >= 0 {
		out = regs.Sized(int(res), d)
	} else {
		out = rt.scratch[:d]
	}
	for l := 0; l < lo; l++ {
		out[l] = shadow.Entry{}
	}
	return out
}

// replayEffect runs one entry with a side effect beyond its register:
// stores, returns, and the rand and print builtins (whose RNG/IO chain is
// one more operand).
func (rt *Runtime) replayEffect(fs *FrameState, ti *TplIns, a, b, base shadow.Vec, addrs []uint64, next, d, lo int) shadow.Vec {
	tags, peak, regs := rt.tags[:d], rt.maxTime[:d], fs.Regs
	var x shadow.Vec
	switch ti.Kind {
	case TplRand:
		x = rt.randVec
	case TplPrint:
		x = rt.ioVec
	}
	if rt.carried != nil {
		rt.traceTpl(ti, regs, a, b, shadow.Slot{}, x)
	}
	out := rt.dest(regs, ti.Res, d, lo)
	switch {
	case ti.N == 0 && x == nil:
		step0(out, base, tags, peak, ti.Lat, lo)
	case ti.N == 0:
		step1(out, base, tags, peak, x, ti.Lat, lo)
	case ti.N == 1 && x == nil:
		step1(out, base, tags, peak, a, ti.Lat, lo)
	case ti.N == 1:
		step2(out, base, tags, peak, a, x, ti.Lat, lo)
	case ti.N == 2 && x == nil:
		step2(out, base, tags, peak, a, b, ti.Lat, lo)
	default:
		var buf [2]int32
		stepN(out, base, tags, peak, regs, ti.Operands(&buf), x, ti.Lat, lo)
	}
	switch ti.Kind {
	case TplStore:
		rt.mem.WriteVec(addrs[next], out, d)
	case TplRet:
		fs.RetVec = append(fs.RetVec[:0], out...)
	case TplRand:
		rt.randVec = append(rt.randVec[:0], out...)
	case TplPrint:
		rt.ioVec = append(rt.ioVec[:0], out...)
	}
	return out
}

// traceTpl is traceIns for a template entry, over operand vectors already
// fetched: a, b are the first two operands, s the loaded slot, x the RNG or
// IO vector.
func (rt *Runtime) traceTpl(ti *TplIns, regs *shadow.RegisterTable, a, b shadow.Vec, s shadow.Slot, x shadow.Vec) {
	switch ti.Kind {
	case TplPhiReduction:
		return
	case TplLoad:
		rt.noteSlot(s)
	}
	switch ti.N {
	case 0:
	case 1:
		rt.noteVec(a)
	case 2:
		rt.noteVec(a)
		rt.noteVec(b)
	default:
		for _, r := range ti.Args {
			rt.noteVec(regs.Get(int(r)))
		}
	}
	rt.noteVec(x)
}

// blockBaseline resolves Step's per-instruction prologue — zeros below the
// window, the frame's control time inside it — once into the baseline
// every template instruction folds over.
func (rt *Runtime) blockBaseline(fs *FrameState, d, lo int) shadow.Vec {
	base := rt.blockBase
	if cap(base) < d {
		base = make(shadow.Vec, d, d+16)
		rt.blockBase = base
	}
	base = base[:d]
	tags := rt.tags
	for l := 0; l < lo; l++ {
		base[l] = shadow.Entry{}
	}
	if lo < d {
		cv := fs.ctrlVec()
		cn := len(cv)
		if cn > d {
			cn = d
		}
		for l := lo; l < cn; l++ {
			var t uint64
			if e := cv[l]; e.Tag == tags[l] {
				t = e.Time
			}
			base[l] = shadow.Entry{Time: t, Tag: tags[l]}
		}
		if cn < lo {
			cn = lo
		}
		for l := cn; l < d; l++ {
			base[l] = shadow.Entry{Tag: tags[l]}
		}
	}
	return base
}

// The step* kernels are the replay's fused per-instruction passes over the
// tracked levels [lo, len(out)): fold the baseline and the operands (an
// operand shorter than the window, or tagged by another region instance,
// reads as zero), add lat, write the entry, and raise the region stack's
// critical path (peak, the runtime's dense maxTime). out, base, tags and
// peak all have the window's length. Each level reads its operands before
// writing out, so an operand may share out's storage (a self-naming phi).

func step0(out, base shadow.Vec, tags, peak []uint64, lat uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + lat
		out[l] = shadow.Entry{Time: t, Tag: tags[l]}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

func step1(out, base shadow.Vec, tags, peak []uint64, a shadow.Vec, lat uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time > t {
			t = a[l].Time
		}
		t += lat
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

func step2(out, base shadow.Vec, tags, peak []uint64, a, b shadow.Vec, lat uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time > t {
			t = a[l].Time
		}
		if l < len(b) && b[l].Tag == tag && b[l].Time > t {
			t = b[l].Time
		}
		t += lat
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

func stepLoad(out, base shadow.Vec, tags, peak []uint64, a shadow.Vec, s shadow.Slot, lat uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	st, sg := s.Times, s.Tags[:len(s.Times)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time > t {
			t = a[l].Time
		}
		if l < len(st) && sg[l] == tag && st[l] > t {
			t = st[l]
		}
		t += lat
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

// stepN is the generic kernel for three or more operands (args, plus the
// RNG/IO vector x when set). It copies the baseline into out first, so no
// operand may share out's storage — true for every non-phi instruction.
func stepN(out, base shadow.Vec, tags, peak []uint64, regs *shadow.RegisterTable, args []int32, x shadow.Vec, lat uint64, lo int) {
	copy(out[lo:], base[lo:len(out)])
	for _, r := range args {
		maxInto(out, tags, regs.Get(int(r)), lo, len(out))
	}
	maxInto(out, tags, x, lo, len(out))
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := out[l].Time + lat
		out[l].Time = t
		if t > peak[l] {
			peak[l] = t
		}
	}
}
