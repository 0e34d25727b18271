// Package depcheck is a static loop-carried dependence analyzer over the Kr
// IR. It classifies every loop region as provably parallel (no iteration of
// the loop can read a value produced by an earlier iteration), provably
// serial (a definite loop-carried flow dependence exists, reported with its
// dependence cycle and source spans), or unknown (the analysis cannot
// decide). The verdicts complement Kremlin's dynamic self-parallelism
// evidence: HCPA says a region *behaved* parallel on one input, depcheck
// says whether that is *guaranteed* for every input.
//
// The verdict semantics deliberately mirror the profiling runtime's
// dependence model: only flow (read-after-write) dependences count — anti
// and output dependences are assumed removable by privatization/renaming,
// exactly as SSA form and the shadow memory's tag rule remove them
// dynamically — and dependences broken by the induction/reduction
// annotations of internal/analysis are skipped, because the runtime breaks
// those same edges. A "parallel" verdict is therefore checkable against the
// dynamic trace: no read in the loop may observe a value written by an
// earlier iteration of the same loop instance (see kremlib's dependence
// tracer and the krfuzz soundness oracle).
//
// Three analyses feed the verdict:
//
//   - Scalar dependence on SSA: a loop-header phi that is neither an
//     induction nor a reduction variable but carries an in-loop definition
//     around the back edge is a definite cross-iteration value cycle.
//     Loop-local scalars need no treatment — mem2reg plus dead-phi pruning
//     already privatizes them per iteration.
//   - Array subscripts affine in the loop's induction variables get the
//     classic ZIV / strong-SIV / GCD dependence tests, dimension by
//     dimension; non-affine subscripts and may-aliased bases fall back to
//     "unknown".
//   - Calls use bottom-up mod/ref summaries (see modref.go), so a call
//     inside a loop only blocks the proof for the objects it actually
//     touches; rand/srand and print are serializing side effects (the
//     runtime threads an RNG-state and an I/O dependence chain through
//     them).
package depcheck

import (
	"fmt"
	"sort"

	"kremlin/internal/absint"
	"kremlin/internal/cfg"
	"kremlin/internal/frontcache"
	"kremlin/internal/ir"
	"kremlin/internal/regions"
	"kremlin/internal/source"
)

// Verdict classifies one loop.
type Verdict int

// The verdicts.
const (
	Unknown  Verdict = iota // cannot prove either way
	Parallel                // provably free of loop-carried flow dependences
	Serial                  // a definite loop-carried flow dependence exists
)

func (v Verdict) String() string {
	switch v {
	case Parallel:
		return "parallel"
	case Serial:
		return "serial"
	}
	return "unknown"
}

// Safety maps the verdict onto the planner's safety lattice.
func (v Verdict) Safety() regions.Safety {
	switch v {
	case Parallel:
		return regions.SafetyProven
	case Serial:
		return regions.SafetyRefuted
	}
	return regions.SafetyUnproven
}

// CauseKind names the kind of dependence (or proof blocker) found.
type CauseKind string

// The cause kinds.
const (
	CauseScalar CauseKind = "scalar-carried" // SSA value cycle through a header phi
	CauseMemory CauseKind = "memory"         // flow dependence through a memory cell
	CauseRNG    CauseKind = "rng-state"      // rand/srand serialize through the RNG state
	CauseIO     CauseKind = "ordered-io"     // print serializes through output order
	CauseCall   CauseKind = "call-effects"   // callee side effects not provably independent
)

// Cause is one dependence (for serial verdicts) or one blocker (for unknown
// verdicts), anchored to a source line.
type Cause struct {
	Kind   CauseKind
	Detail string
	Line   int // 1-based source line, 0 if unknown
}

func (c Cause) String() string {
	if c.Line > 0 {
		return fmt.Sprintf("line %d: [%s] %s", c.Line, c.Kind, c.Detail)
	}
	return fmt.Sprintf("[%s] %s", c.Kind, c.Detail)
}

// LoopReport is the verdict for one loop region.
type LoopReport struct {
	Region  *regions.Region
	Verdict Verdict
	// Causes are the definite dependences (Serial) — the offending cycle,
	// one cause per dependence, with source lines.
	Causes []Cause
	// Blockers are what kept the proof from closing (Unknown).
	Blockers []Cause
}

// Result is the whole-program analysis output.
type Result struct {
	Loops    []*LoopReport // in region-ID order
	ByRegion map[int]*LoopReport
}

// Counts tallies the verdicts.
func (r *Result) Counts() (parallel, serial, unknown int) {
	for _, rep := range r.Loops {
		switch rep.Verdict {
		case Parallel:
			parallel++
		case Serial:
			serial++
		default:
			unknown++
		}
	}
	return
}

// Analyze classifies every loop region of prog and stamps each loop
// region's Safety field with the verdict. facts, when non-nil, supplies
// the interval/congruence abstract interpretation of internal/absint; it
// upgrades verdicts that the purely syntactic tests leave unknown
// (subscript-range disjointness, must-iterate inner loops, shared
// inner induction subscripts) and never downgrades one. Passing nil
// facts reproduces the facts-free analysis.
func Analyze(prog *regions.Program, facts *absint.Facts) *Result {
	return AnalyzeWith(prog, facts, nil)
}

// AnalyzeWith is Analyze with a front-cache session for the mod/ref
// summaries (see summaryCache); a nil session computes them all. The
// result is the same either way.
func AnalyzeWith(prog *regions.Program, facts *absint.Facts, fc *frontcache.Session) *Result {
	res := &Result{ByRegion: make(map[int]*LoopReport)}
	sums := summarize(prog, fc)
	binds := bindParams(prog.Module)
	fas := make(map[*ir.Func]*funcAnalysis)
	for _, r := range prog.Regions {
		if r.Kind != regions.LoopRegion {
			continue
		}
		fi := prog.PerFunc[r.Func]
		fa := fas[r.Func]
		if fa == nil {
			fa = newFuncAnalysis(fi, sums, facts, binds)
			fas[r.Func] = fa
		}
		rep := fa.checkLoop(fi.LoopOf[r], r, prog.Src)
		r.Safety = rep.Verdict.Safety()
		res.Loops = append(res.Loops, rep)
		res.ByRegion[r.ID] = rep
	}
	return res
}

// funcAnalysis caches the per-function CFG facts the loop checks share.
type funcAnalysis struct {
	f     *ir.Func
	sums  map[*ir.Func]*Summary
	g     *cfg.Graph
	idom  []int
	pos   map[*ir.Instr]int // instruction index within its block
	facts *absint.Facts     // may be nil: interval/congruence refinements off
	binds map[*ir.Instr]*bindSet
	encl  map[*ir.Block]*cfg.Loop // innermost loop containing each block
}

// newFuncAnalysis reuses the CFG, dominators and loop forest the region
// analysis built for the function.
func newFuncAnalysis(fi *regions.FuncInfo, sums map[*ir.Func]*Summary, facts *absint.Facts, binds map[*ir.Instr]*bindSet) *funcAnalysis {
	f := fi.Func
	fa := &funcAnalysis{
		f: f, sums: sums, g: fi.Graph, idom: fi.Idom, pos: make(map[*ir.Instr]int),
		facts: facts, binds: binds, encl: make(map[*ir.Block]*cfg.Loop),
	}
	for _, b := range f.Blocks {
		for i, ins := range b.Instrs {
			fa.pos[ins] = i
		}
	}
	for _, lp := range fi.Loops {
		for _, b := range lp.Blocks {
			if cur := fa.encl[b]; cur == nil || lp.Depth > cur.Depth {
				fa.encl[b] = lp
			}
		}
	}
	return fa
}

// dominatesIns reports whether a executes before b on every path reaching b
// (same-block ties broken by instruction order).
func (fa *funcAnalysis) dominatesIns(a, b *ir.Instr) bool {
	if a.Block == b.Block {
		return fa.pos[a] < fa.pos[b]
	}
	return cfg.Dominates(fa.idom, fa.g.Index(a.Block), fa.g.Index(b.Block))
}

// uncond reports whether ins executes on every completed iteration of l.
// The direct test is that its block dominates every latch (back-edge
// source). When that fails because ins sits inside an inner loop, the
// test climbs: if ins's block dominates every latch and every in-body
// break source of its innermost loop li (so any pass through li's body
// runs ins before completing or leaving), and absint proves li's body
// runs at least once per entry (MustIterate), then ins executes whenever
// li.Header does, and the question repeats from li.Header one level up.
func (fa *funcAnalysis) uncond(ins *ir.Instr, l *cfg.Loop, latches []*ir.Block) bool {
	if len(latches) == 0 {
		return false
	}
	b := ins.Block
	li := fa.encl[b]
	for {
		if fa.domAll(b, latches) {
			return true
		}
		if li == nil || li.Header == l.Header {
			return false
		}
		if !fa.facts.MustIterate(li.Header) || !fa.domLoopBody(b, li) {
			return false
		}
		b, li = li.Header, li.Parent
	}
}

// domAll reports whether b dominates every block in list.
func (fa *funcAnalysis) domAll(b *ir.Block, list []*ir.Block) bool {
	bi := fa.g.Index(b)
	for _, o := range list {
		if !cfg.Dominates(fa.idom, bi, fa.g.Index(o)) {
			return false
		}
	}
	return true
}

// domLoopBody reports whether b dominates every latch of li and every
// non-header in-loop source of an exit edge. Control that enters li's
// body then executes b before completing an iteration or breaking out,
// so b runs on li's first iteration — the one MustIterate guarantees.
func (fa *funcAnalysis) domLoopBody(b *ir.Block, li *cfg.Loop) bool {
	bi := fa.g.Index(b)
	for _, blk := range li.Blocks {
		u := fa.g.Index(blk)
		mustDom := false
		for _, s := range fa.g.Succs[u] {
			sb := fa.g.Blocks[s]
			if sb == li.Header || (!li.Contains(sb) && blk != li.Header) {
				mustDom = true
				break
			}
		}
		if mustDom && !cfg.Dominates(fa.idom, bi, u) {
			return false
		}
	}
	return true
}

// access is one memory access the loop performs, directly or through a call.
type access struct {
	ins    *ir.Instr // the load/store, or the call carrying the summary
	write  bool
	obj    object
	subs   []ir.Value // full subscript chain, outermost dimension first
	whole  bool       // whole-object access (call summary / partial view)
	uncond bool       // executes on every completed iteration
	broken bool       // reduction-annotated read: old-value dependence broken
	// exposed: the read definitely observes pre-instruction state. True for
	// direct loads; for call-summary reads only when the callee's read is
	// upward-exposed (the callee cannot have overwritten the cell first).
	exposed bool
	// mayOnly: the write might not happen when the instruction executes
	// (call-summary may-writes). Such a write can never prove a kill and
	// never anchors a definite dependence.
	mayOnly bool
}

func (fa *funcAnalysis) line(src *source.File, ins *ir.Instr) int {
	if ins == nil || ins.Pos <= 0 {
		return 0
	}
	return src.Pos(ins.Pos).Line
}

func (fa *funcAnalysis) checkLoop(l *cfg.Loop, r *regions.Region, src *source.File) *LoopReport {
	rep := &LoopReport{Region: r}

	var latches []*ir.Block
	for _, p := range l.Header.Preds {
		if l.Contains(p) {
			latches = append(latches, p)
		}
	}

	ivs := inductionVars(l)

	// Scalar analysis: every live loop-header phi that is not an annotated
	// induction/reduction variable and carries an in-loop definition around
	// the back edge is a definite cross-iteration value dependence. (Dead
	// phis were pruned by irbuild, and loop-body locals never produce live
	// header phis, which is exactly scalar privatization.)
	for _, phi := range l.Header.Instrs {
		if phi.Op != ir.OpPhi || phi.Induction || phi.Reduction {
			continue
		}
		for i, pred := range phi.Block.Preds {
			if !l.Contains(pred) {
				continue
			}
			def, ok := phi.Args[i].(*ir.Instr)
			if !ok || !l.Contains(def.Block) {
				continue // back edge carries a loop-invariant value
			}
			detail := fmt.Sprintf("value %s is carried into the next iteration", def.Name())
			if dl := fa.line(src, def); dl > 0 {
				detail = fmt.Sprintf("value %s defined at line %d is carried into the next iteration",
					def.Name(), dl)
			}
			line := fa.line(src, phi)
			if line == 0 {
				line = fa.line(src, def)
			}
			rep.Causes = append(rep.Causes, Cause{Kind: CauseScalar, Detail: detail, Line: line})
			break
		}
	}

	accs, moreCauses, blockers := fa.collectAccesses(l, latches, src)
	rep.Causes = append(rep.Causes, moreCauses...)
	rep.Blockers = append(rep.Blockers, blockers...)

	causes, blocks := fa.memoryDeps(l, ivs, accs, src)
	rep.Causes = append(rep.Causes, causes...)
	rep.Blockers = append(rep.Blockers, blocks...)

	dedupCauses(&rep.Causes)
	dedupCauses(&rep.Blockers)
	switch {
	case len(rep.Causes) > 0:
		rep.Verdict = Serial
	case len(rep.Blockers) > 0:
		rep.Verdict = Unknown
	default:
		rep.Verdict = Parallel
	}
	return rep
}

// collectAccesses gathers the loop's memory accesses (including call
// summaries) and the side-effect causes/blockers of builtins and calls.
func (fa *funcAnalysis) collectAccesses(l *cfg.Loop, latches []*ir.Block, src *source.File) (accs []access, causes, blockers []Cause) {
	for _, b := range l.Blocks {
		for _, ins := range b.Instrs {
			switch ins.Op {
			case ir.OpLoad:
				obj, subs, whole := resolveCell(ins.Args[0])
				accs = append(accs, access{
					ins: ins, obj: obj, subs: subs, whole: whole,
					uncond: fa.uncond(ins, l, latches), broken: ins.Reduction,
					exposed: true,
				})
			case ir.OpStore:
				obj, subs, whole := resolveCell(ins.Args[0])
				accs = append(accs, access{
					ins: ins, write: true, obj: obj, subs: subs, whole: whole,
					uncond: fa.uncond(ins, l, latches),
				})
			case ir.OpBuiltin:
				switch ins.Builtin {
				case "rand", "frand", "srand":
					c := Cause{Kind: CauseRNG, Line: fa.line(src, ins),
						Detail: fmt.Sprintf("%s() reads and advances the RNG state every iteration", ins.Builtin)}
					if fa.uncond(ins, l, latches) {
						causes = append(causes, c)
					} else {
						c.Detail = fmt.Sprintf("%s() advances the RNG state on some iterations", ins.Builtin)
						blockers = append(blockers, c)
					}
				case "printval", "printstr", "printnl":
					c := Cause{Kind: CauseIO, Line: fa.line(src, ins),
						Detail: "print output must appear in iteration order"}
					if fa.uncond(ins, l, latches) {
						causes = append(causes, c)
					} else {
						c.Detail = "print on some iterations constrains output order"
						blockers = append(blockers, c)
					}
				}
			case ir.OpCall:
				sum := fa.sums[ins.Callee]
				if sum == nil {
					blockers = append(blockers, Cause{Kind: CauseCall, Line: fa.line(src, ins),
						Detail: fmt.Sprintf("call to unknown function %s", ins.Callee.Name)})
					continue
				}
				if sum.Opaque {
					blockers = append(blockers, Cause{Kind: CauseCall, Line: fa.line(src, ins),
						Detail: fmt.Sprintf("%s() has effects the mod/ref analysis cannot resolve", ins.Callee.Name)})
				}
				if sum.Impure {
					kind, what := CauseIO, "ordered I/O"
					if sum.RNG {
						kind, what = CauseRNG, "RNG state"
					}
					c := Cause{Kind: kind, Line: fa.line(src, ins),
						Detail: fmt.Sprintf("%s() carries %s across iterations", ins.Callee.Name, what)}
					if sum.UncondImpure && fa.uncond(ins, l, latches) {
						causes = append(causes, c)
					} else {
						blockers = append(blockers, c)
					}
				}
				accs = append(accs, fa.callAccesses(ins, sum, l, latches)...)
			}
		}
	}
	return accs, causes, blockers
}

// callAccesses expands a callee's mod/ref summary into whole-object
// accesses at this call site, mapping the callee's array-parameter effects
// through the actual arguments.
func (fa *funcAnalysis) callAccesses(call *ir.Instr, sum *Summary, l *cfg.Loop, latches []*ir.Block) []access {
	var out []access
	add := func(a access) {
		a.ins = call
		a.uncond = fa.uncond(call, l, latches)
		out = append(out, a)
	}
	for _, g := range sum.ReadGlobals {
		obj := object{global: g, elem: g.Elem}
		// A scalar global is a single cell, so the whole-object summary is
		// already element-precise; an array summary is not.
		add(access{obj: obj, whole: g.IsArray(), exposed: sum.exposedRead(g)})
	}
	for _, g := range sum.WriteGlobals {
		obj := object{global: g, elem: g.Elem}
		add(access{write: true, obj: obj, whole: g.IsArray(), mayOnly: !sum.mustWrites(g)})
	}
	mapParam := func(idx int, write bool) {
		a := access{write: write, whole: true, mayOnly: write}
		if idx >= len(call.Args) {
			a.obj = object{unknown: true}
		} else {
			a.obj, _, _ = resolveCell(call.Args[idx])
		}
		add(a)
	}
	for _, idx := range sum.ReadParams {
		mapParam(idx, false)
	}
	for _, idx := range sum.WriteParams {
		mapParam(idx, true)
	}
	return out
}

// memoryDeps runs the dependence tests over every (store, load) pair of
// may-aliasing objects.
func (fa *funcAnalysis) memoryDeps(l *cfg.Loop, ivs map[*ir.Instr]ivInfo, accs []access, src *source.File) (causes, blockers []Cause) {
	var reads, writes []int
	for i, a := range accs {
		if a.write {
			writes = append(writes, i)
		} else if !a.broken {
			reads = append(reads, i)
		}
	}

	// Subscript affine forms, computed once per access.
	forms := make([][]affine, len(accs))
	for _, i := range append(append([]int(nil), reads...), writes...) {
		a := accs[i]
		if a.whole || a.obj.unknown {
			continue
		}
		fs := make([]affine, len(a.subs))
		for d, s := range a.subs {
			fs[d] = affineOf(s, l, ivs, 0)
		}
		forms[i] = fs
	}

	// Scalar privatization / kill analysis: a read dominated by a
	// same-cell store reads this iteration's value, never a previous
	// iteration's. A same-cell store that does NOT dominate the read makes
	// the cross-iteration read conditional (some paths see the fresh
	// value), which degrades any definite dependence to a blocker.
	covered := make([]bool, len(accs))
	partialKill := make([]bool, len(accs))
	for _, ri := range reads {
		r := accs[ri]
		if r.whole || r.obj.unknown {
			continue
		}
		for _, wi := range writes {
			w := accs[wi]
			if w.whole || w.obj.unknown || !sameObject(r.obj, w.obj) {
				continue
			}
			if !sameCell(forms[ri], forms[wi], r.subs, w.subs) {
				continue
			}
			if w.ins == r.ins && r.exposed {
				continue // a call's own write cannot kill its exposed read
			}
			if !w.mayOnly && fa.dominatesIns(w.ins, r.ins) {
				covered[ri] = true
			} else if !fa.dominatesIns(r.ins, w.ins) {
				// A non-dominating (or merely possible) same-cell write makes
				// the cross-iteration read conditional.
				partialKill[ri] = true
			}
		}
	}

	for _, ri := range reads {
		r := accs[ri]
		if covered[ri] {
			continue
		}
		for _, wi := range writes {
			w := accs[wi]
			if !fa.aliases(r.obj, w.obj) {
				continue
			}
			name := r.obj.name()
			if name == "?" {
				name = w.obj.name()
			}
			if r.whole || w.whole || r.obj.unknown || w.obj.unknown {
				line := fa.line(src, w.ins)
				if line == 0 {
					line = fa.line(src, r.ins)
				}
				blockers = append(blockers, Cause{Kind: CauseMemory, Line: line,
					Detail: fmt.Sprintf("access to %s is not element-wise analyzable", name)})
				continue
			}
			verdict, dist := fa.testPairFacts(l, forms[wi], forms[ri], w, r)
			switch verdict {
			case pairIndependent:
				continue
			case pairDefinite:
				// A definite dependence needs must-aliasing bases,
				// unconditional execution of a definite write and an exposed,
				// unkilled read.
				if sameObject(r.obj, w.obj) && r.uncond && w.uncond &&
					r.exposed && !w.mayOnly && !partialKill[ri] {
					det := fmt.Sprintf("%s written at line %d is read %s",
						name, fa.line(src, w.ins), distancePhrase(dist))
					causes = append(causes, Cause{Kind: CauseMemory, Detail: det, Line: fa.line(src, r.ins)})
					continue
				}
				fallthrough
			default: // pairMaybe
				blockers = append(blockers, Cause{Kind: CauseMemory, Line: fa.line(src, r.ins),
					Detail: fmt.Sprintf("subscripts of %s (store line %d, load line %d) not provably independent",
						name, fa.line(src, w.ins), fa.line(src, r.ins))})
			}
		}
	}
	return causes, blockers
}

func distancePhrase(dist int64) string {
	switch {
	case dist == 0:
		return "by every later iteration"
	case dist == 1:
		return "by the next iteration"
	default:
		return fmt.Sprintf("%d iterations later", dist)
	}
}

// sameCell reports whether two accesses provably address the same cell in
// the same iteration (used by the kill analysis): each dimension's affine
// forms must agree, or — even when the subscript is not affine at all —
// both sides index with the very same SSA value, which trivially takes
// the same value within one iteration.
func sameCell(a, b []affine, asubs, bsubs []ir.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if d < len(asubs) && d < len(bsubs) && asubs[d] == bsubs[d] {
			continue
		}
		if !a[d].ok || !b[d].ok || !a[d].equalBases(b[d]) ||
			a[d].k != b[d].k || a[d].c != b[d].c {
			return false
		}
	}
	return true
}

func dedupCauses(cs *[]Cause) {
	seen := make(map[Cause]bool)
	out := (*cs)[:0]
	for _, c := range *cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	*cs = out
}
