package absint

import (
	"fmt"
	"sort"

	"kremlin/internal/ast"
	"kremlin/internal/cfg"
	"kremlin/internal/ir"
)

// Severity classifies a lint finding.
type Severity int

// The severities. SevError is reserved for definite faults on main's
// must-execute path: every run that terminates hits the fault, so the
// program can never complete successfully. Everything else is SevWarn.
const (
	SevWarn Severity = iota
	SevError
)

// String returns "warn" or "error".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Diag is one lint finding with a source position (byte offset).
type Diag struct {
	Fn       string   `json:"fn"`
	Pos      int      `json:"-"`
	Severity Severity `json:"-"`
	Kind     string   `json:"kind"`
	Msg      string   `json:"msg"`
}

// Diagnostic kinds.
const (
	KindOOBIndex    = "oob-index"
	KindDivZero     = "div-zero"
	KindModZero     = "mod-zero"
	KindAllocExtent = "alloc-nonpositive"
	KindDimOOB      = "dim-oob"
	KindIdxOverflow = "index-overflow"
	KindUnreachable = "unreachable"
	KindDeadStore   = "dead-store"
)

func sortDiags(ds []Diag) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos < ds[j].Pos
		}
		if ds[i].Kind != ds[j].Kind {
			return ds[i].Kind < ds[j].Kind
		}
		return ds[i].Msg < ds[j].Msg
	})
}

// fmtVal renders an abstract value for diagnostics.
func fmtVal(v Val) string {
	if c, ok := v.IsConst(); ok {
		return fmt.Sprintf("%d", c)
	}
	lo, hi := "-inf", "+inf"
	if v.I.Lo != negInf {
		lo = fmt.Sprintf("%d", v.I.Lo)
	}
	if v.I.Hi != posInf {
		hi = fmt.Sprintf("%d", v.I.Hi)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// finalize runs one reporting sweep over the converged environments:
// it fills the per-function fact tables (definition values, proven
// in-bounds views, proven nonzero divisors, must-iterate loops) and
// collects definite-fault and unreachable-code diagnostics, anchored to
// the value IDs of the instructions they report.
func (an *fnAnalysis) finalize() (*fnFacts, []diagAt) {
	maxBlock := 0
	for _, b := range an.f.Blocks {
		if b.ID > maxBlock {
			maxBlock = b.ID
		}
	}
	ff := &fnFacts{
		def:      make([]Val, an.nv),
		proven:   make([]uint8, an.nv),
		mustIter: make([]bool, maxBlock+1),
	}
	for i := range ff.def {
		ff.def[i] = TopVal()
	}
	an.retVal = BotVal() // rebuilt from converged envs by the sweep below

	var diags []diagAt
	ipdom := an.g.Postdominators()
	entry := an.g.Index(an.f.Entry())
	isMain := an.f.Name == "main"
	// definite marks a fault diagnostic, upgrading to error severity when
	// it sits on main's must-execute path (the block postdominates entry).
	definite := func(bi int, ins *ir.Instr, kind, msg string) {
		sev := SevWarn
		if isMain && cfg.Dominates(ipdom, bi, entry) {
			sev = SevError
		}
		diags = append(diags, diagAt{at: ins.ID, sev: sev, kind: kind, msg: msg})
	}
	warn := func(ins *ir.Instr, kind, msg string) {
		diags = append(diags, diagAt{at: ins.ID, sev: SevWarn, kind: kind, msg: msg})
	}

	for bi, b := range an.g.Blocks {
		if an.in[bi] == nil {
			for _, ins := range b.Instrs {
				if ins.Pos > 0 {
					warn(ins, KindUnreachable, "unreachable code (condition can never hold)")
					break
				}
			}
			continue
		}
		env := cloneEnv(an.in[bi])
		wrapped := make(map[*ir.Instr]bool)
		an.transfer(env, b, func(ins *ir.Instr, v Val, wrap bool) {
			if ins.HasResult() && ins.ID < len(ff.def) {
				ff.def[ins.ID] = v
			}
			if wrap {
				wrapped[ins] = true
			}
			switch ins.Op {
			case ir.OpView:
				idx := an.evalValue(env, ins.Args[1])
				dims, exact, ok := an.arrDims(env, ins.Args[0])
				if ok && len(dims) > 0 {
					d := dims[0]
					if idx.I.Lo >= 0 && d.I.Lo != posInf && idx.I.Hi < d.I.Lo {
						ff.proven[ins.ID] |= provenInBounds
					}
					if exact {
						if c, isC := d.IsConst(); isC && (idx.I.Hi < 0 || idx.I.Lo >= c) {
							definite(bi, ins, KindOOBIndex,
								fmt.Sprintf("index %s is always out of range [0,%d)", fmtVal(idx), c))
							break
						}
					}
				}
				if idx.I.Hi < 0 {
					definite(bi, ins, KindOOBIndex,
						fmt.Sprintf("index %s is always negative", fmtVal(idx)))
				}
				if x, isI := ins.Args[1].(*ir.Instr); isI && wrapped[x] {
					warn(ins, KindIdxOverflow, "index arithmetic may overflow int64")
				}
			case ir.OpBin:
				if (ins.Bin == ir.BinDiv || ins.Bin == ir.BinRem) && ins.Typ.Elem == ast.Int {
					dv := an.evalValue(env, ins.Args[1])
					if dv.NonZero() {
						ff.proven[ins.ID] |= provenNonZero
					} else if c, isC := dv.IsConst(); isC && c == 0 {
						if ins.Bin == ir.BinDiv {
							definite(bi, ins, KindDivZero, "integer division by zero")
						} else {
							definite(bi, ins, KindModZero, "integer modulo by zero")
						}
					}
				}
			case ir.OpAllocArray:
				for di, a := range ins.Args {
					ev := an.evalValue(env, a)
					if ev.I.Hi < 1 {
						definite(bi, ins, KindAllocExtent,
							fmt.Sprintf("array dimension %d extent %s is never positive", di, fmtVal(ev)))
					}
				}
			case ir.OpBuiltin:
				if ins.Builtin == "dim" && len(ins.Args) == 2 {
					if dims, _, ok := an.arrDims(env, ins.Args[0]); ok {
						kv := an.evalValue(env, ins.Args[1])
						if c, isC := kv.IsConst(); isC && (c < 0 || c >= int64(len(dims))) {
							definite(bi, ins, KindDimOOB,
								fmt.Sprintf("dim index %d out of range (array has %d dimensions)", c, len(dims)))
						}
					}
				}
			}
		})
	}

	// Must-iterate: a loop whose header, entered from outside, provably
	// branches into the body on the first test.
	for _, l := range an.loops {
		h := l.Header
		var enter []Val
		for pi, p := range h.Preds {
			if l.Contains(p) || an.in[an.g.Index(p)] == nil {
				continue
			}
			e := an.edgeEnv(p, h, pi)
			if e == nil {
				continue
			}
			if enter == nil {
				enter = cloneEnv(e) // e is the shared edge scratch
			} else {
				for i := range enter {
					enter[i] = enter[i].Join(e[i])
				}
			}
		}
		if enter == nil {
			continue
		}
		an.transfer(enter, h, nil)
		term := h.Terminator()
		if term == nil {
			continue
		}
		var target *ir.Block
		switch term.Op {
		case ir.OpJump:
			target = term.Targets[0]
		case ir.OpBr:
			cv := an.evalValue(enter, term.Args[0])
			if c, ok := cv.IsConst(); ok {
				if c != 0 {
					target = term.Targets[0]
				} else {
					target = term.Targets[1]
				}
			}
		}
		if target != nil && l.Contains(target) {
			ff.mustIter[h.ID] = true
		}
	}
	return ff, diags
}

// deadStoreDiags finds arrays and globals that are written but never
// read anywhere in the module — stores whose values no execution can
// observe. Any non-addressing use (call/return/builtin argument) counts
// as a read, conservatively.
func deadStoreDiags(mod *ir.Module) []Diag {
	type sink struct {
		read     bool
		wrote    bool
		storePos int
		name     string
		fn       string
	}
	// One sink per global, one per local allocation.
	gsink := make(map[*ir.Global]*sink)
	asink := make(map[*ir.Instr]*sink)
	for _, g := range mod.Globals {
		gsink[g] = &sink{name: g.Name}
	}

	// root maps an array-typed value to its allocation site or global.
	type root struct {
		g *ir.Global
		a *ir.Instr
	}
	for _, f := range mod.Funcs {
		roots := make(map[*ir.Instr]root)
		resolve := func(v ir.Value) (root, bool) {
			ins, ok := v.(*ir.Instr)
			if !ok {
				return root{}, false
			}
			r, ok := roots[ins]
			return r, ok
		}
		touch := func(v ir.Value, read, wrote bool, pos int) {
			r, ok := resolve(v)
			if !ok {
				return
			}
			var s *sink
			if r.g != nil {
				s = gsink[r.g]
			} else if r.a != nil {
				s = asink[r.a]
			}
			if s == nil {
				return
			}
			if read {
				s.read = true
			}
			if wrote {
				s.wrote = true
				if s.storePos == 0 || (pos > 0 && pos < s.storePos) {
					s.storePos = pos
				}
			}
		}
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				switch ins.Op {
				case ir.OpGlobal:
					roots[ins] = root{g: ins.Global}
				case ir.OpAllocArray:
					roots[ins] = root{a: ins}
					asink[ins] = &sink{name: "local array", fn: f.Name}
				case ir.OpView:
					if r, ok := resolve(ins.Args[0]); ok {
						roots[ins] = r
					}
				case ir.OpLoad:
					touch(ins.Args[0], true, false, ins.Pos)
				case ir.OpStore:
					touch(ins.Args[0], false, true, ins.Pos)
				default:
					// Escapes: the array value used as a plain argument
					// (call, return, builtin, comparison) may be read there.
					for _, a := range ins.Args {
						touch(a, true, false, ins.Pos)
					}
				}
			}
		}
	}

	var out []Diag
	for _, g := range mod.Globals {
		s := gsink[g]
		if s.wrote && !s.read {
			out = append(out, Diag{Fn: s.fn, Pos: s.storePos, Severity: SevWarn, Kind: KindDeadStore,
				Msg: fmt.Sprintf("global %s is written but never read", s.name)})
		}
	}
	// Deterministic order over allocation sites: by function then position.
	var allocs []*ir.Instr
	for a := range asink {
		allocs = append(allocs, a)
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].Pos < allocs[j].Pos })
	for _, a := range allocs {
		s := asink[a]
		if s.wrote && !s.read {
			out = append(out, Diag{Fn: s.fn, Pos: s.storePos, Severity: SevWarn, Kind: KindDeadStore,
				Msg: "local array is written but never read"})
		}
	}
	return out
}
