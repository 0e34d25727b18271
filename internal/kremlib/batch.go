// Block-batched HCPA updates: the bytecode VM replaces the per-instruction
// Step calls of a batchable basic block with a single StepBlock over a
// precompiled template. A block is batchable when it contains no call, no
// array allocation and no rand or print builtin: those still take one Step
// per instruction, because calls and allocations perturb the step counter
// or the heap mid-block, and rand and print chain through the runtime's RNG
// and IO vectors. Loads, stores and returns are batched. Within a batchable
// block neither the region stack, the tags, nor the control-dependence
// stack can change — region events fire only on CFG edges, and PushCtrl
// only at the terminator — so the control baseline can be resolved once and
// every instruction's availability-time fold replayed from
// compile-time-resolved register indices. The result is bit-identical to
// issuing the template's Steps one by one.
//
// The address-buffer contract: the VM records the effective address of
// every load and store the block executes, in execution order, and passes
// the buffer to StepBlock. The template's TplLoad and TplStore entries
// appear in the same order (both follow the IR's instruction order), so the
// k-th memory entry of the template consumes the k-th buffered address.
package kremlib

import "kremlin/internal/shadow"

// TplKind selects the side effect of one template instruction beyond the
// register fold.
type TplKind uint8

const (
	// TplPlain folds the argument vectors and stores the result at Res.
	TplPlain TplKind = iota
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
)

// TplIns is one instruction of a block template: fold the availability
// vectors of Args (shadow register IDs; constants and broken dependencies
// are dropped at compile time) — and, for loads, the shadow slot of the
// loaded address — over the control baseline, add Lat, update the
// per-level critical path, and store the result at register Res (-1 for
// instructions that produce no register value: stores, returns and
// branches).
type TplIns struct {
	Res  int32
	Kind TplKind
	Lat  uint64
	Args []int32
}

// BlockTemplate is the precompiled HCPA effect of one batchable basic
// block.
type BlockTemplate struct {
	Ins []TplIns
	// TotalLat is the summed latency of every instruction in the block
	// (including zero-latency ones), accrued to total work in one add.
	TotalLat uint64
}

// StepBlock replays tpl — the HCPA availability-time updates of one
// batchable basic block — in a single call. addrs holds the effective
// addresses of the block's loads and stores in execution order (see the
// package comment). It is observably identical to calling Step for each of
// the block's instructions in order: the control baseline is resolved once
// (legal because nothing inside the block can change the region stack,
// tags, or control stack), and each instruction makes one fused pass over
// the tracked levels that folds the baseline, its arguments and (for
// loads) its memory slot with the tag-mismatch-is-zero rule, adds its
// latency, and writes the result straight into its destination. The
// per-level critical path is collected in a block-local watermark and
// raised into the region stack once, at the end — nothing inside the block
// reads it. The returned vector is the last instruction's (the
// terminator's, for Br-ended blocks — the caller feeds it to PushCtrl
// exactly as it would Step's return); it is valid until the next
// Step/StepBlock.
func (rt *Runtime) StepBlock(fs *FrameState, tpl *BlockTemplate, addrs []uint64) shadow.Vec {
	rt.totalWork += tpl.TotalLat
	d := rt.level()
	lo := rt.lowLevel()
	tags := rt.tags[:d]
	base := rt.blockBaseline(fs, d, lo)

	peak := rt.blockPeak
	if cap(peak) < d {
		peak = make([]uint64, d, d+16)
		rt.blockPeak = peak
	}
	peak = peak[:d]
	for l := lo; l < d; l++ {
		peak[l] = rt.stack[l].maxTime
	}

	regs := fs.Regs
	tracing := rt.carried != nil
	var out shadow.Vec
	next := 0
	for i := range tpl.Ins {
		ti := &tpl.Ins[i]
		if ti.Res >= 0 {
			out = regs.Sized(int(ti.Res), d)
		} else {
			out = rt.scratch[:d]
		}
		for l := 0; l < lo; l++ {
			out[l] = shadow.Entry{}
		}
		lat := ti.Lat
		switch ti.Kind {
		case TplLoad, TplLoadReduction:
			addr := addrs[next]
			next++
			a := regs.Get(int(ti.Args[0]))
			s := rt.mem.Load(addr)
			if tracing {
				rt.noteVec(a)
				if ti.Kind == TplLoad {
					rt.noteSlot(s)
				}
			}
			stepLoad(out, base, tags, peak, a, s, lat, lo)
		default:
			if tracing {
				for _, r := range ti.Args {
					rt.noteVec(regs.Get(int(r)))
				}
			}
			switch len(ti.Args) {
			case 0:
				step0(out, base, tags, peak, lat, lo)
			case 1:
				step1(out, base, tags, peak, regs.Get(int(ti.Args[0])), lat, lo)
			case 2:
				step2(out, base, tags, peak, regs.Get(int(ti.Args[0])), regs.Get(int(ti.Args[1])), lat, lo)
			default:
				stepN(out, base, tags, peak, regs, ti.Args, lat, lo)
			}
			switch ti.Kind {
			case TplStore:
				rt.mem.WriteVec(addrs[next], out, d)
				next++
			case TplRet:
				fs.RetVec = append(fs.RetVec[:0], out...)
			}
		}
	}

	for l := lo; l < d; l++ {
		rt.stack[l].maxTime = peak[l]
	}
	return out
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

// The step* kernels are StepBlock's fused per-instruction passes over the
// tracked levels [lo, len(out)): fold the baseline and the operands (an
// operand shorter than the window, or tagged by another region instance,
// reads as zero), add lat, write the entry, and raise the block-local
// watermark. out, base, tags and peak all have the window's length.

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

// stepN is the generic kernel for three or more operands.
func stepN(out, base shadow.Vec, tags, peak []uint64, regs *shadow.RegisterTable, args []int32, lat uint64, lo int) {
	copy(out[lo:], base[lo:len(out)])
	for _, r := range args {
		maxInto(out, tags, regs.Get(int(r)), lo, len(out))
	}
	peak = peak[:len(out)]
	for l := lo; l < len(out); l++ {
		t := out[l].Time + lat
		out[l].Time = t
		if t > peak[l] {
			peak[l] = t
		}
	}
}
