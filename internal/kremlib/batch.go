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
// bit-identical to issuing the Steps one by one, except that a compacted
// template (see Compactor) leaves the registers of the temporaries it
// inlined unwritten — no replay reads them.
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

// TplOp is one folded operand of a template entry: shadow register Reg,
// read Off time units before the entry's result. An operand vector whose
// tag at a level is not the current region instance's reads as absent.
type TplOp struct {
	Reg int32
	Off uint32
}

// TplIns is one entry of a template: at every tracked level its result is
//
//	max(base + Base, op.Time + op.Off for each operand op, x + Lat)
//
// where base is the control baseline, x the loaded shadow-memory slot of a
// load or the runtime's RNG/IO vector of a rand/print, and operands whose
// tag does not match read as absent. The entry raises the per-level
// critical path to its result and stores it at register Res (-1 for
// entries that produce no register value: stores, returns, prints and
// branches).
//
// A plain entry — one IR instruction, as BlockTemplateOf builds — has
// every offset equal to Lat, the instruction's latency, so its result is
// Step's max(base, operands, x) + Lat. A compacted entry (Compactor) also
// folds the temporaries inlined into it: their roots carry the summed
// latency of the path to this entry, and Base is the longest such path
// from the baseline. Every offset is at most Base, so an absent operand —
// which Step would read as zero — never beats the baseline term.
//
// Offsets are bounded by their block's summed latency, which a compacted
// template keeps within uint32 (Compactor.Template).
//
// Operands are stored inline so the replay loop chases no slice pointer:
// N is the operand count saturated at 3, A and B hold the first two
// operands, and Args holds every operand only when there are three or
// more (N == 3).
type TplIns struct {
	Res  int32
	Kind TplKind
	N    uint8
	A, B TplOp
	Base uint32
	Lat  uint32
	Args []TplOp
}

// Operands returns the entry's operands; buf backs the result when the
// operands are stored inline.
func (ti *TplIns) Operands(buf *[2]TplOp) []TplOp {
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

func newTplIns(res int32, kind TplKind, base, lat uint32, ops []TplOp) TplIns {
	ti := TplIns{Res: res, Kind: kind, Base: base, Lat: lat}
	switch len(ops) {
	case 0:
	case 1:
		ti.N, ti.A = 1, ops[0]
	case 2:
		ti.N, ti.A, ti.B = 2, ops[0], ops[1]
	default:
		ti.N, ti.A, ti.B = 3, ops[0], ops[1]
		ti.Args = append([]TplOp(nil), ops...)
	}
	return ti
}

// tplKind returns the template kind and result register of a body
// instruction.
func tplKind(ins *ir.Instr) (TplKind, int32) {
	kind := TplPlain
	res := int32(-1)
	if ins.HasResult() {
		res = int32(ins.ID)
	}
	switch ins.Op {
	case ir.OpLoad:
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
	return kind, res
}

// Folds reports whether Step folds operand i of a body instruction: a
// load folds its address, anything else every operand but its broken
// (induction/reduction) one.
func Folds(ins *ir.Instr, i int) bool {
	return ins.Op == ir.OpLoad || i != ins.BreakArg
}

// BlockTemplateOf builds the plain template of a block body — the
// instructions after its phis — with Step's rules: one entry per stepped
// instruction (params are never stepped), operands resolved to register
// IDs with constants and the broken (induction/reduction) operand dropped.
// A load always folds its address operand. Loads, stores, returns and the
// rand and print builtins carry their side effect in Kind.
func BlockTemplateOf(body []*ir.Instr) BlockTemplate {
	tpl := make(BlockTemplate, 0, len(body))
	var ops []TplOp
	for _, ins := range body {
		if ins.Op == ir.OpParam {
			continue
		}
		kind, res := tplKind(ins)
		lat := uint32(ins.Latency())
		ops = ops[:0]
		for i, a := range ins.Args {
			if ai, ok := a.(*ir.Instr); ok && Folds(ins, i) {
				ops = append(ops, TplOp{Reg: int32(ai.ID), Off: lat})
			}
		}
		tpl = append(tpl, newTplIns(res, kind, lat, lat, ops))
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
	var ops []TplOp
	for _, phi := range phis {
		lat := uint32(phi.Latency())
		ops = ops[:0]
		if !phi.Induction && predIdx >= 0 && predIdx < len(phi.Args) {
			if ai, ok := phi.Args[predIdx].(*ir.Instr); ok {
				ops = append(ops, TplOp{Reg: int32(ai.ID), Off: lat})
			}
		}
		kind := TplPlain
		if phi.Reduction {
			kind = TplPhiReduction
		}
		tpl = append(tpl, newTplIns(int32(phi.ID), kind, lat, lat, ops))
	}
	return tpl
}

// StepBlock replays edge — the phis of the CFG edge just taken — and then
// body — the block's instructions, or a run of them, as a plain or a
// compacted template — in a single call, and adds work, the summed latency
// of the instructions they stand for, to the run's total. Either template
// may be empty. addrs holds the effective addresses of body's loads and
// stores in execution order (see the package comment). It is observably
// identical to calling Step for each phi and then each body instruction in
// order, except that a compacted body leaves the registers of the
// temporaries it inlined unwritten: the control baseline is resolved once
// (legal because nothing between block entry and the terminator can change
// the region stack, tags, or control stack), and each entry makes one
// fused pass over the tracked levels that folds the baseline, its operands
// and (for loads) its memory slot with the tag-mismatch-is-absent rule,
// writes the result straight into its destination, and raises the region
// stack's critical path in place. The returned vector is the last entry's
// (the terminator's, for Br-ended blocks — see PushBlockCtrl), nil when
// both templates are empty; it is valid until the next Step/StepBlock.
func (rt *Runtime) StepBlock(fs *FrameState, edge, body BlockTemplate, addrs []uint64, work uint64) shadow.Vec {
	rt.totalWork += work
	if len(edge) == 0 && len(body) == 0 {
		return nil // a block whose compacted template kept nothing
	}
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
	next := 0
	for i := range tpl {
		ti := &tpl[i]
		// Operands first (the operand-before-Sized rule).
		var a, b shadow.Vec
		if ti.N > 0 {
			a = regs.Get(int(ti.A.Reg))
			if ti.N > 1 {
				b = regs.Get(int(ti.B.Reg))
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
				step0(out, base, tags, peak, uint64(ti.Base), lo)
			case 1:
				step1(out, base, tags, peak, uint64(ti.Base), a, uint64(ti.A.Off), lo)
			case 2:
				step2(out, base, tags, peak, uint64(ti.Base), a, uint64(ti.A.Off), b, uint64(ti.B.Off), lo)
			default:
				stepWide(out, base, tags, peak, regs, ti, shadow.Slot{}, lo)
			}
		case TplLoad, TplLoadReduction:
			s := rt.mem.Load(addrs[next])
			next++
			if tracing {
				rt.traceTpl(ti, regs, a, b, s, nil)
			}
			out = rt.dest(regs, ti.Res, d, lo)
			if ti.N <= 2 {
				stepLoad(out, base, tags, peak, ti, a, b, s, lo)
			} else {
				stepWide(out, base, tags, peak, regs, ti, s, lo)
			}
		default:
			out = rt.replayEffect(fs, ti, a, b, base, addrs, next, d, lo)
			if ti.Kind == TplStore {
				next++
			}
		}
	}
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
// one more operand, at offset Lat).
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
		step0(out, base, tags, peak, uint64(ti.Base), lo)
	case ti.N == 0:
		step1(out, base, tags, peak, uint64(ti.Base), x, uint64(ti.Lat), lo)
	case ti.N == 1 && x == nil:
		step1(out, base, tags, peak, uint64(ti.Base), a, uint64(ti.A.Off), lo)
	case ti.N == 1:
		step2(out, base, tags, peak, uint64(ti.Base), a, uint64(ti.A.Off), x, uint64(ti.Lat), lo)
	case ti.N == 2 && x == nil:
		step2(out, base, tags, peak, uint64(ti.Base), a, uint64(ti.A.Off), b, uint64(ti.B.Off), lo)
	case x == nil:
		stepWide(out, base, tags, peak, regs, ti, shadow.Slot{}, lo)
	default:
		stepN(out, base, tags, peak, regs, ti, x, shadow.Slot{}, lo)
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
		for _, op := range ti.Args {
			rt.noteVec(regs.Get(int(op.Reg)))
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

// The step* kernels are the replay's fused per-entry passes over the
// tracked levels [lo, len(out)): fold the baseline at offset bo and each
// operand at its own offset (an operand shorter than the window, or tagged
// by another region instance, is absent), write the entry, and raise the
// region stack's critical path (peak, the runtime's dense maxTime). out,
// base, tags and peak all have the window's length. Each level reads its
// operands before writing out, so an operand may share out's storage (a
// self-naming phi).

func step0(out, base shadow.Vec, tags, peak []uint64, bo uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + bo
		out[l] = shadow.Entry{Time: t, Tag: tags[l]}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

func step1(out, base shadow.Vec, tags, peak []uint64, bo uint64, a shadow.Vec, ao uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + bo
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time+ao > t {
			t = a[l].Time + ao
		}
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

func step2(out, base shadow.Vec, tags, peak []uint64, bo uint64, a shadow.Vec, ao uint64, b shadow.Vec, bOff uint64, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + bo
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time+ao > t {
			t = a[l].Time + ao
		}
		if l < len(b) && b[l].Tag == tag && b[l].Time+bOff > t {
			t = b[l].Time + bOff
		}
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

// stepLoad is the kernel of a load with at most two operands (a and b,
// either possibly nil) and its memory slot s at offset Lat.
func stepLoad(out, base shadow.Vec, tags, peak []uint64, ti *TplIns, a, b shadow.Vec, s shadow.Slot, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	bo, ao, bOff, so := uint64(ti.Base), uint64(ti.A.Off), uint64(ti.B.Off), uint64(ti.Lat)
	st, sg := s.Times, s.Tags[:len(s.Times)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + bo
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time+ao > t {
			t = a[l].Time + ao
		}
		if l < len(b) && b[l].Tag == tag && b[l].Time+bOff > t {
			t = b[l].Time + bOff
		}
		if l < len(st) && sg[l] == tag && st[l]+so > t {
			t = st[l] + so
		}
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

// stepWide runs an entry with three or more operands (and the memory slot
// s of a load): the fused stepLoad4 for up to four, stepN beyond.
func stepWide(out, base shadow.Vec, tags, peak []uint64, regs *shadow.RegisterTable, ti *TplIns, s shadow.Slot, lo int) {
	if len(ti.Args) > 4 {
		stepN(out, base, tags, peak, regs, ti, nil, s, lo)
		return
	}
	var d shadow.Vec
	if len(ti.Args) == 4 {
		d = regs.Get(int(ti.Args[3].Reg))
	}
	stepLoad4(out, base, tags, peak, ti, regs.Get(int(ti.A.Reg)), regs.Get(int(ti.B.Reg)),
		regs.Get(int(ti.Args[2].Reg)), d, s, lo)
}

// stepLoad4 is stepLoad for three or four operands (d may be nil) and an
// optional memory slot s. No operand may share out's storage, as in stepN.
func stepLoad4(out, base shadow.Vec, tags, peak []uint64, ti *TplIns, a, b, c, d shadow.Vec, s shadow.Slot, lo int) {
	base = base[:len(out)]
	tags = tags[:len(out)]
	peak = peak[:len(out)]
	bo, so := uint64(ti.Base), uint64(ti.Lat)
	ao, bOff, co := uint64(ti.Args[0].Off), uint64(ti.Args[1].Off), uint64(ti.Args[2].Off)
	var do uint64
	if d != nil {
		do = uint64(ti.Args[3].Off)
	}
	st, sg := s.Times, s.Tags[:len(s.Times)]
	for l := lo; l < len(out); l++ {
		t := base[l].Time + bo
		tag := tags[l]
		if l < len(a) && a[l].Tag == tag && a[l].Time+ao > t {
			t = a[l].Time + ao
		}
		if l < len(b) && b[l].Tag == tag && b[l].Time+bOff > t {
			t = b[l].Time + bOff
		}
		if l < len(c) && c[l].Tag == tag && c[l].Time+co > t {
			t = c[l].Time + co
		}
		if l < len(d) && d[l].Tag == tag && d[l].Time+do > t {
			t = d[l].Time + do
		}
		if l < len(st) && sg[l] == tag && st[l]+so > t {
			t = st[l] + so
		}
		out[l] = shadow.Entry{Time: t, Tag: tag}
		if t > peak[l] {
			peak[l] = t
		}
	}
}

// stepN is the generic kernel: any number of operands, plus the RNG/IO
// vector x or the memory slot s (at offset Lat) when set. It writes the
// baseline into out first, so no operand may share out's storage — true
// for every non-phi entry.
func stepN(out, base shadow.Vec, tags, peak []uint64, regs *shadow.RegisterTable, ti *TplIns, x shadow.Vec, s shadow.Slot, lo int) {
	for l := lo; l < len(out); l++ {
		out[l] = shadow.Entry{Time: base[l].Time + uint64(ti.Base), Tag: tags[l]}
	}
	var buf [2]TplOp
	for _, op := range ti.Operands(&buf) {
		maxInto(out, tags, regs.Get(int(op.Reg)), uint64(op.Off), lo, len(out))
	}
	maxInto(out, tags, x, uint64(ti.Lat), lo, len(out))
	maxIntoSlot(out, tags, s, uint64(ti.Lat), lo, len(out))
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		if t := out[l].Time; t > peak[l] {
			peak[l] = t
		}
	}
}
