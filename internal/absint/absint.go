// Package absint is a flow-sensitive interval/congruence abstract
// interpreter over the SSA Kr IR. For every integer SSA value it computes
// a sound [lo, hi] range and a congruence x ≡ r (mod m), propagated
// through a per-block environment lattice with branch-condition
// refinement on CFG edges, widening/narrowing at natural-loop headers,
// and interprocedural summaries (parameter ranges joined over all call
// sites bottom-up, return ranges flowing back to callers — the same
// callee-first order the depcheck mod/ref summaries use).
//
// Three consumers pull facts out of the fixpoint:
//
//   - the bytecode compiler asks InBounds/NonZeroDivisor to emit
//     unchecked opcode variants and widen superinstruction fusion
//     windows (internal/bytecode);
//   - the static dependence prover asks ValueOf/MustIterate to sharpen
//     subscript tests and execution guarantees (internal/depcheck);
//   - `kremlin lint` and the serve admission gate ask Diagnostics for
//     definite-fault findings (provable out-of-bounds, division by zero,
//     non-positive allocation extents) plus unreachable-code and
//     dead-store warnings.
//
// Soundness contract: every fact over-approximates the set of concrete
// executions. Integer arithmetic in the runtime wraps silently, so any
// possibly-overflowing abstract operation collapses its interval to ⊤
// (see interval.go); an InBounds or NonZeroDivisor answer of true means
// the checked fault can never occur on any input, and an error-severity
// diagnostic means the fault occurs on every terminating run of main.
package absint

import (
	"unsafe"

	"kremlin/internal/ast"
	"kremlin/internal/cfg"
	"kremlin/internal/frontcache"
	"kremlin/internal/ir"
	"kremlin/internal/irhash"
)

// Analysis size guards: functions beyond the per-function bounds are
// skipped, and a module beyond maxModInstrs is skipped wholesale (all
// queries answer "no fact"), bounding compile-time cost on generated
// mega-programs. Skipping is always sound: a missing fact only means a
// bounds check stays checked, a depcheck verdict stays unknown, and
// lint stays silent.
const (
	maxModInstrs = 100000 // total instructions across the module
	maxFnValues  = 60000
	maxFnBlocks  = 6000
	maxEnvCells  = 4 << 20 // blocks × values upper bound per function
	maxPasses    = 64      // fixpoint sweeps before giving up on a function
	widenDelay   = 2       // header joins before widening kicks in
	narrowPasses = 2       // decreasing sweeps after stabilization
)

// Facts is the analysis result for one module.
type Facts struct {
	mod   *ir.Module
	fns   map[*ir.Func]*fnFacts
	diags []Diag
}

// fnFacts is the per-function slice of the result. It is indexed by value
// and block IDs and holds no IR pointers or positions, so the front cache
// shares one value across every program whose function has the same
// analysis inputs.
type fnFacts struct {
	def      []Val   // by value ID: Val at the definition point
	proven   []uint8 // by value ID: provenInBounds / provenNonZero bits
	mustIter []bool  // by block ID: loop header whose body runs ≥1 iteration per entry
}

const (
	provenInBounds uint8 = 1 << iota // OpView: index proven within bounds
	provenNonZero                    // OpBin int Div/Rem: divisor proven nonzero
)

// pass1Result is one function's first-pass outcome: whether the fixpoint
// converged, its return summary, and the abstract arguments of each call
// site (by call-site ordinal, see callOrder).
type pass1Result struct {
	ok   bool
	ret  Val
	args []callSiteArgs
}

// fnResult is one function's final-pass outcome. ok is false when the
// second fixpoint did not converge: the function then gets no facts and no
// diagnostics, and keeps its first-pass summary.
type fnResult struct {
	ok    bool
	ret   Val
	facts *fnFacts
	diags []diagAt
}

// valBytes is the size of one Val, for the cache's size estimates.
const valBytes = int64(unsafe.Sizeof(Val{}))

// Bytes estimates the memory r holds (frontcache.Value).
func (r *pass1Result) Bytes() int64 {
	n := int64(48)
	for _, a := range r.args {
		n += 56 + int64(len(a.vals))*valBytes
		for _, ar := range a.arrs {
			n += 32 + 8*int64(len(ar.dims))
		}
	}
	return n
}

// Bytes estimates the memory r holds (frontcache.Value).
func (r *fnResult) Bytes() int64 {
	n := int64(64)
	if f := r.facts; f != nil {
		n += 72 + int64(len(f.def))*valBytes + int64(len(f.proven)) + int64(len(f.mustIter))
	}
	for _, d := range r.diags {
		n += 56 + int64(len(d.kind)+len(d.msg))
	}
	return n
}

// diagAt is a diagnostic anchored to the value ID of the instruction it
// reports; Fn and Pos are filled in from the current IR.
type diagAt struct {
	at        int
	sev       Severity
	kind, msg string
}

// Analyze runs the abstract interpretation over every function of mod.
// Modules above the maxModInstrs budget get an empty (but valid) fact
// table: generated mega-programs pay nothing for the analysis, and every
// consumer degrades to its facts-free behavior.
func Analyze(mod *ir.Module) *Facts { return AnalyzeWith(mod, nil) }

// AnalyzeWith is Analyze with a front-cache session: each function's first
// pass and final pass are looked up under a key built from their exact
// inputs (see passKey and finalKey) and computed only on a miss. A nil
// session computes everything; the facts are the same either way.
func AnalyzeWith(mod *ir.Module, fc *frontcache.Session) *Facts {
	fa := &Facts{mod: mod, fns: make(map[*ir.Func]*fnFacts)}
	total := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			total += len(b.Instrs)
		}
	}
	if total > maxModInstrs {
		return fa
	}
	order, calls := callOrder(mod)

	// Pass 1, callee-first with ⊤ parameters: return summaries and
	// call-site argument values.
	sums := make(map[*ir.Func]Val)
	pass1 := make(map[*ir.Func]*pass1Result, len(order))
	states := make(map[*ir.Func]*fnAnalysis) // pass-1 states computed in this run
	var keys1 map[*ir.Func]frontcache.Key
	var rank map[*ir.Func]int // position in order
	if fc != nil {
		keys1 = make(map[*ir.Func]frontcache.Key, len(order))
		rank = make(map[*ir.Func]int, len(order))
		for i, f := range order {
			rank[f] = i
		}
	}
	for _, f := range order {
		var p1 *pass1Result
		if fc != nil {
			k := passKey(fc, f, calls[f], sums)
			keys1[f] = k
			if v, ok := fc.Get(frontcache.KindAbsint, k); ok {
				p1 = v.(*pass1Result)
			}
		}
		if p1 == nil {
			an := newFnAnalysis(f, sums, nil, nil)
			if an == nil || !an.fixpoint() {
				p1 = &pass1Result{}
			} else {
				p1 = &pass1Result{ok: true, args: an.collectCalls(calls[f])}
				p1.ret = an.retVal
				states[f] = an
			}
			if fc != nil {
				fc.Put(keys1[f], p1)
			}
		}
		pass1[f] = p1
		if p1.ok {
			sums[f] = p1.ret
		}
	}

	// A caller that was skipped (size guard or non-convergence) recorded no
	// call-site arguments, so its callees must keep ⊤ parameters.
	forceTop := make(map[*ir.Func]bool)
	for _, f := range order {
		if pass1[f].ok {
			continue
		}
		for _, call := range calls[f] {
			forceTop[call.Callee] = true
		}
	}

	// Join every reachable call site's arguments into the callee's
	// parameter facts (scalar ranges and array extents).
	paramVals := make(map[*ir.Func][]Val)
	paramArrs := make(map[*ir.Func][]arrInfo)
	for _, f := range order {
		p1 := pass1[f]
		if !p1.ok {
			continue
		}
		for ci, call := range calls[f] {
			args := p1.args[ci]
			if !args.reached {
				continue
			}
			callee := call.Callee
			pv := paramVals[callee]
			pa := paramArrs[callee]
			if pv == nil {
				pv = make([]Val, len(callee.Params))
				pa = make([]arrInfo, len(callee.Params))
				for i := range pv {
					pv[i] = BotVal()
					pa[i] = arrInfo{}
				}
				paramVals[callee] = pv
				paramArrs[callee] = pa
			}
			for i := range callee.Params {
				if i < len(args.vals) {
					pv[i] = pv[i].Join(args.vals[i])
				} else {
					pv[i] = TopVal()
				}
				if i < len(args.arrs) {
					pa[i] = pa[i].join(args.arrs[i])
				} else {
					pa[i] = arrInfo{}
				}
			}
		}
	}

	// Pass 2, callee-first again with refined parameters; summaries are
	// re-refined as we go so callers see pass-2 callee ranges.
	changedSum := make(map[*ir.Func]bool)
	for _, f := range order {
		p1 := pass1[f]
		if !p1.ok {
			continue
		}
		pv, pa := paramVals[f], paramArrs[f]
		if forceTop[f] {
			pv, pa = nil, nil
		}
		calleeMoved := false
		for ci, call := range calls[f] {
			if p1.args[ci].reached && changedSum[call.Callee] {
				calleeMoved = true
				break
			}
		}
		var res *fnResult
		var k frontcache.Key
		if fc != nil {
			k = finalKey(fc, keys1[f], calls[f], sums, pv, pa, calleeMoved)
			if v, ok := fc.Get(frontcache.KindAbsint, k); ok {
				res = v.(*fnResult)
			}
		}
		if res == nil {
			an := states[f]
			if an == nil {
				// The first pass was a cache hit: recompute its states
				// against the summaries it saw (earlier functions' first
				// passes), then let the final pass read the live ones.
				an = newFnAnalysis(f, pass1View(rank, f, calls[f], pass1), nil, nil)
				an.fixpoint()
				an.sums, an.retVal = sums, p1.ret
			}
			res = an.finalPass(pv, pa, calleeMoved)
			if fc != nil {
				fc.Put(k, res)
			}
		}
		if !res.ok {
			continue
		}
		if !sameVal(p1.ret, res.ret) {
			changedSum[f] = true
		}
		sums[f] = res.ret
		fa.fns[f] = res.facts
		fa.diags = placeDiags(fa.diags, f, res.diags)
	}
	fa.diags = append(fa.diags, deadStoreDiags(mod)...)
	sortDiags(fa.diags)
	return fa
}

// finalPass runs a function's second interprocedural pass from its
// converged first-pass state. When the refined parameters add nothing over
// the type tops and no callee summary moved, the pass-2 fixpoint would
// reproduce pass 1's states instruction for instruction — reuse them and
// skip straight to the narrowing and fact-derivation passes.
func (an *fnAnalysis) finalPass(pv []Val, pa []arrInfo, calleeMoved bool) *fnResult {
	uninformative := true
	if pv != nil {
		for i, p := range an.f.Params {
			tt := typeTop(p.Typ.Elem, p.Typ.Dims)
			if !sameVal(tt.Meet(pv[i]), tt) || pa[i].dims != nil {
				uninformative = false
				break
			}
		}
	}
	if !uninformative || calleeMoved {
		an = an.reset(pv, pa)
		if !an.fixpoint() {
			return &fnResult{}
		}
		// fixpoint never transfers a return, so the summary is rebuilt
		// from the converged states, as the first pass's is.
		an.sweep(nil)
	}
	an.narrow()
	ret := an.retVal
	// The fact sweep sees the function's own final summary at recursive
	// call sites, as its callers will.
	an.sums[an.f] = ret
	ff, diags := an.finalize()
	return &fnResult{ok: true, ret: ret, facts: ff, diags: diags}
}

// pass1View rebuilds the summaries f's first pass read: those of callees
// earlier in order whose own first pass converged.
func pass1View(rank map[*ir.Func]int, f *ir.Func, calls []*ir.Instr, pass1 map[*ir.Func]*pass1Result) map[*ir.Func]Val {
	view := make(map[*ir.Func]Val)
	for _, call := range calls {
		if c := call.Callee; rank[c] < rank[f] && pass1[c].ok {
			view[c] = pass1[c].ret
		}
	}
	return view
}

// placeDiags appends f's anchored diagnostics to out with the function
// name and the anchors' current source positions.
func placeDiags(out []Diag, f *ir.Func, ds []diagAt) []Diag {
	if len(ds) == 0 {
		return out
	}
	pos := make(map[int]int)
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			pos[ins.ID] = ins.Pos
		}
	}
	for _, d := range ds {
		out = append(out, Diag{Fn: f.Name, Pos: pos[d.at], Severity: d.sev, Kind: d.kind, Msg: d.msg})
	}
	return out
}

// passKey is the front-cache key of f's first pass: everything the pass
// reads. That is f's own canonical IR (its local sum, which covers the
// globals it touches and its callees' names), the value-ID space and
// parameter IDs the size guards and entry state use, whether f is main,
// and the summary each call site sees — absent until the callee's own
// first pass has converged.
func passKey(fc *frontcache.Session, f *ir.Func, calls []*ir.Instr, sums map[*ir.Func]Val) frontcache.Key {
	local := fc.Local(f)
	c := &irhash.Canon{Buf: make([]byte, 0, 64+24*len(calls))}
	c.S("absint-pass1")
	c.Buf = append(c.Buf, local[:]...)
	c.B(f.Name == "main")
	c.U(uint64(f.NumValues()))
	for _, p := range f.Params {
		c.U(uint64(p.ID))
	}
	encodeSums(c, calls, sums)
	return fc.Key(c.Buf)
}

// finalKey is the front-cache key of f's final pass: the first-pass key
// (the reused pass-1 states depend on exactly its inputs), the joined
// parameter facts, whether a callee summary moved, and the summary each
// call site sees now.
func finalKey(fc *frontcache.Session, key1 frontcache.Key, calls []*ir.Instr, sums map[*ir.Func]Val, pv []Val, pa []arrInfo, calleeMoved bool) frontcache.Key {
	c := &irhash.Canon{Buf: make([]byte, 0, 64+24*len(calls))}
	c.S("absint-final")
	c.Buf = append(c.Buf, key1[:]...)
	c.B(pv != nil)
	for i := range pv {
		encodeVal(c, pv[i])
		c.B(pa[i].dims != nil)
		c.U(uint64(len(pa[i].dims)))
		for _, d := range pa[i].dims {
			c.I(d)
		}
		c.B(pa[i].exact)
	}
	c.B(calleeMoved)
	encodeSums(c, calls, sums)
	return fc.Key(c.Buf)
}

func encodeSums(c *irhash.Canon, calls []*ir.Instr, sums map[*ir.Func]Val) {
	c.U(uint64(len(calls)))
	for _, call := range calls {
		s, ok := sums[call.Callee]
		c.B(ok)
		if ok {
			encodeVal(c, s)
		}
	}
}

func encodeVal(c *irhash.Canon, v Val) {
	c.I(v.I.Lo)
	c.I(v.I.Hi)
	c.I(v.M)
	c.I(v.R)
}

// InBounds reports whether the view's index is proven within the viewed
// dimension on every execution (the bounds check can never fire).
func (fa *Facts) InBounds(view *ir.Instr) bool {
	if fa == nil || view == nil || view.Block == nil {
		return false
	}
	ff := fa.fns[view.Block.Func]
	return ff != nil && view.ID < len(ff.proven) && ff.proven[view.ID]&provenInBounds != 0
}

// NonZeroDivisor reports whether the int division/remainder's divisor is
// proven nonzero on every execution.
func (fa *Facts) NonZeroDivisor(bin *ir.Instr) bool {
	if fa == nil || bin == nil || bin.Block == nil {
		return false
	}
	ff := fa.fns[bin.Block.Func]
	return ff != nil && bin.ID < len(ff.proven) && ff.proven[bin.ID]&provenNonZero != 0
}

// ValueOf returns the abstract value of v at its definition point.
// Sound for any use of v (SSA values are immutable); constants are exact.
func (fa *Facts) ValueOf(v ir.Value) (Val, bool) {
	switch x := v.(type) {
	case *ir.ConstInt:
		return ConstVal(x.V), true
	case *ir.ConstBool:
		if x.V {
			return ConstVal(1), true
		}
		return ConstVal(0), true
	case *ir.Instr:
		if fa == nil || x.Block == nil {
			return TopVal(), false
		}
		ff := fa.fns[x.Block.Func]
		if ff == nil || x.ID >= len(ff.def) {
			return TopVal(), false
		}
		return ff.def[x.ID], true
	}
	return TopVal(), false
}

// MustIterate reports whether the loop headed at header executes its body
// at least once every time the loop is entered from outside.
func (fa *Facts) MustIterate(header *ir.Block) bool {
	if fa == nil || header == nil || header.Func == nil {
		return false
	}
	ff := fa.fns[header.Func]
	return ff != nil && header.ID < len(ff.mustIter) && ff.mustIter[header.ID]
}

// Diagnostics returns every lint finding, ordered by function then
// source position.
func (fa *Facts) Diagnostics() []Diag {
	if fa == nil {
		return nil
	}
	return fa.diags
}

// Errors returns only the error-severity findings: definite faults on
// main's must-execute path — every terminating run hits them.
func (fa *Facts) Errors() []Diag {
	if fa == nil {
		return nil
	}
	var out []Diag
	for _, d := range fa.diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// callOrder is a deterministic callee-first (DFS postorder) ordering of
// every function — the same bottom-up order the mod/ref summaries use —
// plus each function's call sites with a callee, in block order. A call
// site's index in that list is its ordinal.
func callOrder(mod *ir.Module) ([]*ir.Func, map[*ir.Func][]*ir.Instr) {
	var order []*ir.Func
	calls := make(map[*ir.Func][]*ir.Instr, len(mod.Funcs))
	seen := make(map[*ir.Func]bool)
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if seen[f] {
			return
		}
		seen[f] = true
		var cs []*ir.Instr
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				if isCallSite(ins) {
					cs = append(cs, ins)
					visit(ins.Callee)
				}
			}
		}
		calls[f] = cs
		order = append(order, f)
	}
	for _, f := range mod.Funcs {
		visit(f)
	}
	return order, calls
}

func isCallSite(ins *ir.Instr) bool { return ins.Op == ir.OpCall && ins.Callee != nil }

// arrInfo is the guaranteed shape of an array value: a lower bound per
// dimension (0 = unknown), exact when the true extents are known.
type arrInfo struct {
	dims  []int64
	exact bool
}

func (a arrInfo) join(b arrInfo) arrInfo {
	if a.dims == nil {
		return b
	}
	if b.dims == nil {
		return a
	}
	if len(a.dims) != len(b.dims) {
		return arrInfo{}
	}
	out := arrInfo{dims: make([]int64, len(a.dims)), exact: a.exact && b.exact}
	for i := range a.dims {
		out.dims[i] = min64(a.dims[i], b.dims[i])
		if a.dims[i] != b.dims[i] {
			out.exact = false
		}
	}
	return out
}

// callSiteArgs records one call site's abstract arguments; reached is
// false for a call site in a block the fixpoint never reached.
type callSiteArgs struct {
	reached bool
	vals    []Val
	arrs    []arrInfo
}

// fnAnalysis is the in-flight per-function fixpoint state.
type fnAnalysis struct {
	f        *ir.Func
	g        *cfg.Graph
	idom     []int
	loops    []*cfg.Loop
	headerOf map[*ir.Block]*cfg.Loop
	sums     map[*ir.Func]Val
	params   []Val
	paramArr []arrInfo

	nv     int
	in     [][]Val // by block index; nil = unreached
	visits []int

	// Sweep scratch, reused across every edge of every pass so the
	// fixpoint allocates only when a block's in-state actually changes.
	edgeBuf []Val
	accBuf  []Val
	phiIDs  []int
	phiVals []Val

	retVal Val
}

func newFnAnalysis(f *ir.Func, sums map[*ir.Func]Val, params []Val, paramArr []arrInfo) *fnAnalysis {
	nv := f.NumValues()
	if nv > maxFnValues || len(f.Blocks) > maxFnBlocks || nv*len(f.Blocks) > maxEnvCells {
		return nil
	}
	g := cfg.New(f)
	an := &fnAnalysis{
		f: f, g: g, sums: sums, params: params, paramArr: paramArr,
		nv: nv, in: make([][]Val, len(f.Blocks)), visits: make([]int, len(f.Blocks)),
		headerOf: make(map[*ir.Block]*cfg.Loop),
		retVal:   BotVal(),
	}
	an.idom = g.Dominators()
	an.loops = g.Loops(an.idom)
	for _, l := range an.loops {
		an.headerOf[l.Header] = l
	}
	return an
}

// reset returns a fresh analysis over the same function, reusing the
// CFG, dominators, and loop forest (and the sweep scratch) so the
// second interprocedural pass skips their reconstruction.
func (an *fnAnalysis) reset(params []Val, paramArr []arrInfo) *fnAnalysis {
	return &fnAnalysis{
		f: an.f, g: an.g, idom: an.idom, loops: an.loops, headerOf: an.headerOf,
		sums: an.sums, params: params, paramArr: paramArr,
		nv: an.nv, in: make([][]Val, len(an.f.Blocks)), visits: make([]int, len(an.f.Blocks)),
		edgeBuf: an.edgeBuf, accBuf: an.accBuf, phiIDs: an.phiIDs, phiVals: an.phiVals,
		retVal: BotVal(),
	}
}

func (an *fnAnalysis) entryEnvInto(env []Val) {
	for i := range env {
		env[i] = TopVal()
	}
	for i, p := range an.f.Params {
		v := typeTop(p.Typ.Elem, p.Typ.Dims)
		if an.params != nil && i < len(an.params) && !an.params[i].Bot() {
			v = v.Meet(an.params[i])
		}
		env[p.ID] = v
	}
}

func cloneEnv(env []Val) []Val {
	out := make([]Val, len(env))
	copy(out, env)
	return out
}

// blockIn computes b's new in-state into the reusable accumulator:
// entry state (for the entry block) joined with every feasible incoming
// edge. It reports false when no predecessor state reaches b yet. The
// returned slice is an.accBuf — callers must copy before the next call.
func (an *fnAnalysis) blockIn(b *ir.Block, bi, entry int) ([]Val, bool) {
	if bi != entry && len(b.Preds) == 1 && an.in[an.g.Index(b.Preds[0])] != nil {
		// Single-predecessor fast path: the edge environment IS the
		// in-state, no join accumulator copy needed.
		e := an.edgeEnv(b.Preds[0], b, 0)
		return e, e != nil
	}
	if an.accBuf == nil {
		an.accBuf = make([]Val, an.nv)
	}
	acc, have := an.accBuf, false
	if bi == entry {
		an.entryEnvInto(acc)
		have = true
	}
	for pi, p := range b.Preds {
		if an.in[an.g.Index(p)] == nil {
			continue
		}
		e := an.edgeEnv(p, b, pi)
		if e == nil {
			continue // infeasible edge
		}
		if !have {
			copy(acc, e)
			have = true
			continue
		}
		for i := range acc {
			acc[i] = acc[i].Join(e[i])
		}
	}
	return acc, have
}

func sameEnv(a, b []Val) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameVal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// typeTop is the weakest value of a scalar type.
func typeTop(k ast.BasicKind, dims int) Val {
	if dims > 0 {
		return TopVal()
	}
	if k == ast.Bool {
		return Val{I: Interval{0, 1}, M: 1}
	}
	return TopVal()
}

// fixpoint runs round-robin RPO sweeps with widening at loop headers.
// It reports whether the analysis converged; on false the environments
// are not a post-fixpoint and no facts may be derived from them.
func (an *fnAnalysis) fixpoint() bool {
	rpo := an.g.RPO()
	entry := an.g.Index(an.f.Entry())
	// Dirty tracking: blockIn is a pure function of the predecessors'
	// in-states (plus, at headers, the block's own previous state via
	// widening), so a block whose inputs did not change since its last
	// recomputation would reproduce the same output — skip it. The visit
	// counter then counts recomputations that had changed inputs, which
	// can only delay widening relative to full sweeps, never lose
	// precision, and the result is still a deterministic post-fixpoint.
	dirty := make([]bool, len(an.g.Blocks))
	for i := range dirty {
		dirty[i] = true
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, bi := range rpo {
			if !dirty[bi] {
				continue
			}
			dirty[bi] = false
			b := an.g.Blocks[bi]
			newIn, have := an.blockIn(b, bi, entry)
			if !have {
				continue
			}
			// Widen only the header's own phi cells: in SSA every
			// loop-carried value is a phi at some loop header, so this is
			// enough for termination, while loop-invariant cells (e.g. an
			// outer induction variable passing through an inner header)
			// keep their refined bounds instead of being thrown to ±∞.
			if an.in[bi] != nil && an.headerOf[b] != nil {
				an.visits[bi]++
				if an.visits[bi] > widenDelay {
					for _, ins := range b.Instrs {
						if ins.Op != ir.OpPhi {
							break
						}
						newIn[ins.ID] = an.in[bi][ins.ID].widen(newIn[ins.ID])
					}
				}
			}
			if !sameEnv(an.in[bi], newIn) {
				if an.in[bi] == nil {
					an.in[bi] = cloneEnv(newIn)
				} else {
					copy(an.in[bi], newIn)
				}
				changed = true
				for _, s := range an.g.Succs[bi] {
					dirty[s] = true
				}
				if an.headerOf[b] != nil {
					dirty[bi] = true // widening reads the block's own state
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// narrow runs bounded decreasing sweeps from the post-fixpoint, regaining
// the precision widening threw away (loop exit bounds, in particular).
func (an *fnAnalysis) narrow() {
	rpo := an.g.RPO()
	entry := an.g.Index(an.f.Entry())
	for pass := 0; pass < narrowPasses; pass++ {
		for _, bi := range rpo {
			b := an.g.Blocks[bi]
			newIn, have := an.blockIn(b, bi, entry)
			if have && an.in[bi] != nil {
				copy(an.in[bi], newIn)
			}
		}
	}
}

// edgeEnv computes the environment flowing along the edge p→b (where b is
// p's successor via b.Preds[predIdx]): p's out-state, refined by p's
// branch condition for this edge, with b's phis bound to their p-args.
// A nil result marks the edge as infeasible. The returned slice is the
// shared an.edgeBuf scratch — callers must consume it before the next
// edgeEnv call.
func (an *fnAnalysis) edgeEnv(p, b *ir.Block, predIdx int) []Val {
	if an.edgeBuf == nil {
		an.edgeBuf = make([]Val, an.nv)
	}
	env := an.edgeBuf
	copy(env, an.in[an.g.Index(p)])
	an.transfer(env, p, nil)
	if term := p.Terminator(); term != nil && term.Op == ir.OpBr {
		// Identify which way this edge goes. When both targets are b the
		// condition tells us nothing.
		t0, t1 := term.Targets[0], term.Targets[1]
		if t0 != t1 {
			if !an.refineCond(env, term.Args[0], t0 == b) {
				return nil
			}
		}
	}
	// Bind b's phis (parallel copy: evaluate all args first).
	ids, vals := an.phiIDs[:0], an.phiVals[:0]
	for _, ins := range b.Instrs {
		if ins.Op != ir.OpPhi {
			break
		}
		v := BotVal()
		for i, pred := range b.Preds {
			if pred == p && i == predIdx {
				v = v.Join(an.evalValue(env, ins.Args[i]))
			}
		}
		ids = append(ids, ins.ID)
		vals = append(vals, v.Meet(typeTop(ins.Typ.Elem, ins.Typ.Dims)))
	}
	an.phiIDs, an.phiVals = ids, vals
	for i, id := range ids {
		env[id] = vals[i]
	}
	return env
}

// transfer evaluates b's non-phi instructions over env in order. When
// visit is non-nil it is called with each instruction's value and
// whether the operation may wrap (for the final reporting pass).
func (an *fnAnalysis) transfer(env []Val, b *ir.Block, visit func(ins *ir.Instr, v Val, wrap bool)) {
	for _, ins := range b.Instrs {
		if ins.Op == ir.OpPhi {
			if visit != nil {
				visit(ins, env[ins.ID], false)
			}
			continue
		}
		v, wrap := an.evalIns(env, ins)
		if ins.HasResult() {
			env[ins.ID] = v
		}
		if visit != nil {
			visit(ins, v, wrap)
		}
	}
}

// evalValue reads a value's abstraction from the environment.
func (an *fnAnalysis) evalValue(env []Val, v ir.Value) Val {
	switch x := v.(type) {
	case *ir.ConstInt:
		return ConstVal(x.V)
	case *ir.ConstBool:
		if x.V {
			return ConstVal(1)
		}
		return ConstVal(0)
	case *ir.ConstFloat:
		return TopVal()
	case *ir.Instr:
		if x.ID < len(env) {
			return env[x.ID]
		}
	}
	return TopVal()
}

// evalIns is the transfer function of one instruction.
func (an *fnAnalysis) evalIns(env []Val, ins *ir.Instr) (Val, bool) {
	switch ins.Op {
	case ir.OpParam:
		return env[ins.ID], false
	case ir.OpBin:
		return an.evalBin(env, ins)
	case ir.OpNeg:
		if ins.Typ.Elem == ast.Int {
			return ConstVal(0).Sub(an.evalValue(env, ins.Args[0])), false
		}
		return TopVal(), false
	case ir.OpNot:
		x := an.evalValue(env, ins.Args[0])
		if c, ok := x.IsConst(); ok {
			return ConstVal(1 - c), false
		}
		return Val{I: Interval{0, 1}, M: 1}, false
	case ir.OpLoad:
		return typeTop(ins.Typ.Elem, ins.Typ.Dims), false
	case ir.OpCall:
		if ins.Callee != nil {
			if s, ok := an.sums[ins.Callee]; ok {
				return s.Meet(typeTop(ins.Typ.Elem, ins.Typ.Dims)), false
			}
		}
		return typeTop(ins.Typ.Elem, ins.Typ.Dims), false
	case ir.OpBuiltin:
		return an.evalBuiltin(env, ins), false
	case ir.OpRet:
		if len(ins.Args) > 0 {
			an.retVal = an.retVal.Join(an.evalValue(env, ins.Args[0]))
		} else {
			an.retVal = an.retVal.Join(TopVal())
		}
		return TopVal(), false
	}
	return typeTop(ins.Typ.Elem, ins.Typ.Dims), false
}

func intish(v ir.Value) bool {
	t := v.Type()
	return t.Dims == 0 && (t.Elem == ast.Int || t.Elem == ast.Bool)
}

func (an *fnAnalysis) evalBin(env []Val, ins *ir.Instr) (Val, bool) {
	if !intish(ins.Args[0]) || !intish(ins.Args[1]) {
		if ins.Bin.IsComparison() {
			return Val{I: Interval{0, 1}, M: 1}, false
		}
		return TopVal(), false
	}
	a := an.evalValue(env, ins.Args[0])
	b := an.evalValue(env, ins.Args[1])
	if a.Bot() || b.Bot() {
		return BotVal(), false
	}
	switch ins.Bin {
	case ir.BinAdd:
		r := a.Add(b)
		return r, fullRange(r) && !fullRange(a) && !fullRange(b)
	case ir.BinSub:
		r := a.Sub(b)
		return r, fullRange(r) && !fullRange(a) && !fullRange(b)
	case ir.BinMul:
		r := a.Mul(b)
		return r, fullRange(r) && !fullRange(a) && !fullRange(b)
	case ir.BinDiv:
		return a.Div(b), false
	case ir.BinRem:
		return a.Rem(b), false
	case ir.BinAnd:
		if ca, ok := a.IsConst(); ok && ca == 0 {
			return ConstVal(0), false
		}
		if cb, ok := b.IsConst(); ok && cb == 0 {
			return ConstVal(0), false
		}
		if ca, aok := a.IsConst(); aok {
			if cb, bok := b.IsConst(); bok {
				return ConstVal(boolToInt(ca != 0 && cb != 0)), false
			}
		}
		return Val{I: Interval{0, 1}, M: 1}, false
	case ir.BinOr:
		if ca, ok := a.IsConst(); ok && ca != 0 {
			return ConstVal(1), false
		}
		if cb, ok := b.IsConst(); ok && cb != 0 {
			return ConstVal(1), false
		}
		if ca, aok := a.IsConst(); aok {
			if cb, bok := b.IsConst(); bok {
				return ConstVal(boolToInt(ca != 0 || cb != 0)), false
			}
		}
		return Val{I: Interval{0, 1}, M: 1}, false
	default:
		if ins.Bin.IsComparison() {
			return evalCmp(ins.Bin, a, b), false
		}
	}
	return TopVal(), false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fullRange(v Val) bool { return v.I.Lo == negInf || v.I.Hi == posInf }

// evalCmp decides a comparison when the ranges or congruences do.
func evalCmp(kind ir.BinKind, a, b Val) Val {
	tv := func(c bool) Val { return ConstVal(boolToInt(c)) }
	unknown := Val{I: Interval{0, 1}, M: 1}
	neverEqual := func() bool {
		if a.I.Hi < b.I.Lo || b.I.Hi < a.I.Lo {
			return true
		}
		if a.M >= 2 && b.M >= 2 {
			if g := gcd64(a.M, b.M); g >= 2 && (a.R-b.R)%g != 0 {
				return true
			}
		}
		if a.M >= 2 {
			if c, ok := b.IsConst(); ok && ((c-a.R)%a.M+a.M)%a.M != 0 {
				return true
			}
		}
		if b.M >= 2 {
			if c, ok := a.IsConst(); ok && ((c-b.R)%b.M+b.M)%b.M != 0 {
				return true
			}
		}
		return false
	}
	switch kind {
	case ir.BinEq:
		if ca, ok := a.IsConst(); ok {
			if cb, ok2 := b.IsConst(); ok2 {
				return tv(ca == cb)
			}
		}
		if neverEqual() {
			return tv(false)
		}
	case ir.BinNe:
		if ca, ok := a.IsConst(); ok {
			if cb, ok2 := b.IsConst(); ok2 {
				return tv(ca != cb)
			}
		}
		if neverEqual() {
			return tv(true)
		}
	case ir.BinLt:
		if a.I.Hi < b.I.Lo {
			return tv(true)
		}
		if a.I.Lo >= b.I.Hi {
			return tv(false)
		}
	case ir.BinLe:
		if a.I.Hi <= b.I.Lo {
			return tv(true)
		}
		if a.I.Lo > b.I.Hi {
			return tv(false)
		}
	case ir.BinGt:
		if a.I.Lo > b.I.Hi {
			return tv(true)
		}
		if a.I.Hi <= b.I.Lo {
			return tv(false)
		}
	case ir.BinGe:
		if a.I.Lo >= b.I.Hi {
			return tv(true)
		}
		if a.I.Hi < b.I.Lo {
			return tv(false)
		}
	}
	return unknown
}

// refineCond narrows env under the assumption that cond evaluates to
// want. Returns false when the assumption is contradictory (the edge is
// infeasible).
func (an *fnAnalysis) refineCond(env []Val, cond ir.Value, want bool) bool {
	ins, ok := cond.(*ir.Instr)
	if !ok {
		if cb, isB := cond.(*ir.ConstBool); isB {
			return cb.V == want
		}
		return true
	}
	// The condition value itself is now known.
	if ins.ID < len(env) {
		m := env[ins.ID].Meet(ConstVal(boolToInt(want)))
		if m.Bot() {
			return false
		}
		env[ins.ID] = m
	}
	switch ins.Op {
	case ir.OpNot:
		return an.refineCond(env, ins.Args[0], !want)
	case ir.OpBin:
		switch {
		case ins.Bin == ir.BinAnd && want:
			return an.refineCond(env, ins.Args[0], true) && an.refineCond(env, ins.Args[1], true)
		case ins.Bin == ir.BinOr && !want:
			return an.refineCond(env, ins.Args[0], false) && an.refineCond(env, ins.Args[1], false)
		}
		if !ins.Bin.IsComparison() || !intish(ins.Args[0]) || !intish(ins.Args[1]) {
			return true
		}
		kind := ins.Bin
		if !want {
			kind = negateCmp(kind)
		}
		a := an.evalValue(env, ins.Args[0])
		b := an.evalValue(env, ins.Args[1])
		na, nb, feasible := refineCmp(kind, a, b)
		if !feasible {
			return false
		}
		if x, isI := ins.Args[0].(*ir.Instr); isI && x.ID < len(env) {
			env[x.ID] = na
		}
		if y, isI := ins.Args[1].(*ir.Instr); isI && y.ID < len(env) {
			env[y.ID] = nb
		}
	}
	return true
}

func negateCmp(k ir.BinKind) ir.BinKind {
	switch k {
	case ir.BinEq:
		return ir.BinNe
	case ir.BinNe:
		return ir.BinEq
	case ir.BinLt:
		return ir.BinGe
	case ir.BinLe:
		return ir.BinGt
	case ir.BinGt:
		return ir.BinLe
	case ir.BinGe:
		return ir.BinLt
	}
	return k
}

// refineCmp narrows both sides under "a kind b". The returned values are
// sound refinements; feasible is false when no concrete pair satisfies
// the relation.
func refineCmp(kind ir.BinKind, a, b Val) (Val, Val, bool) {
	switch kind {
	case ir.BinEq:
		m := a.Meet(b)
		return m, m, !m.Bot()
	case ir.BinNe:
		na, nb := a, b
		if c, ok := b.IsConst(); ok {
			na = trimPoint(a, c)
		}
		if c, ok := a.IsConst(); ok {
			nb = trimPoint(b, c)
		}
		return na, nb, !na.Bot() && !nb.Bot()
	case ir.BinLt:
		na := a.Meet(Val{I: Interval{negInf, subClamp(b.I.Hi, 1)}, M: 1})
		nb := b.Meet(Val{I: Interval{addClamp(a.I.Lo, 1), posInf}, M: 1})
		return na, nb, !na.Bot() && !nb.Bot()
	case ir.BinLe:
		na := a.Meet(Val{I: Interval{negInf, b.I.Hi}, M: 1})
		nb := b.Meet(Val{I: Interval{a.I.Lo, posInf}, M: 1})
		return na, nb, !na.Bot() && !nb.Bot()
	case ir.BinGt:
		na := a.Meet(Val{I: Interval{addClamp(b.I.Lo, 1), posInf}, M: 1})
		nb := b.Meet(Val{I: Interval{negInf, subClamp(a.I.Hi, 1)}, M: 1})
		return na, nb, !na.Bot() && !nb.Bot()
	case ir.BinGe:
		na := a.Meet(Val{I: Interval{b.I.Lo, posInf}, M: 1})
		nb := b.Meet(Val{I: Interval{negInf, a.I.Hi}, M: 1})
		return na, nb, !na.Bot() && !nb.Bot()
	}
	return a, b, true
}

// trimPoint removes c from v when c sits on an interval endpoint.
func trimPoint(v Val, c int64) Val {
	if cv, ok := v.IsConst(); ok {
		if cv == c {
			return BotVal()
		}
		return v
	}
	out := v
	if out.I.Lo == c {
		out.I.Lo = addClamp(c, 1)
	}
	if out.I.Hi == c {
		out.I.Hi = subClamp(c, 1)
	}
	return out.norm()
}

func addClamp(v, d int64) int64 {
	if v == negInf || v == posInf {
		return v
	}
	r, _ := addSat(v, d)
	return r
}

func subClamp(v, d int64) int64 {
	if v == negInf || v == posInf {
		return v
	}
	r, _ := subSat(v, d)
	return r
}

// arrDims resolves an array value to abstract per-dimension extents by
// walking its view chain. exact means the extents are precisely known.
func (an *fnAnalysis) arrDims(env []Val, v ir.Value) (dims []Val, exact bool, ok bool) {
	skip := 0
	for {
		ins, isI := v.(*ir.Instr)
		if !isI {
			return nil, false, false
		}
		switch ins.Op {
		case ir.OpView:
			skip++
			v = ins.Args[0]
		case ir.OpGlobal:
			g := ins.Global
			if !g.IsArray() || skip >= len(g.Dims) {
				return nil, false, false
			}
			for _, d := range g.Dims[skip:] {
				dims = append(dims, ConstVal(d))
			}
			return dims, true, true
		case ir.OpAllocArray:
			if skip >= len(ins.Args) {
				return nil, false, false
			}
			exact = true
			for _, a := range ins.Args[skip:] {
				dv := an.evalValue(env, a)
				// A successful allocation implies every extent ≥ 1: the
				// runtime faults before any view otherwise.
				if dv.I.Lo < 1 {
					dv = Val{I: Interval{1, dv.I.Hi}, M: 1}.norm()
				}
				if _, c := dv.IsConst(); !c {
					exact = false
				}
				dims = append(dims, dv)
			}
			return dims, exact, true
		case ir.OpParam:
			if ins.Typ.Dims == 0 || skip >= ins.Typ.Dims {
				return nil, false, false
			}
			pi := -1
			for i, p := range an.f.Params {
				if p == ins {
					pi = i
				}
			}
			if pi < 0 || an.paramArr == nil || pi >= len(an.paramArr) || an.paramArr[pi].dims == nil {
				return nil, false, false
			}
			info := an.paramArr[pi]
			if skip >= len(info.dims) {
				return nil, false, false
			}
			for _, d := range info.dims[skip:] {
				if info.exact {
					dims = append(dims, ConstVal(d))
				} else if d > 0 {
					dims = append(dims, Val{I: Interval{d, posInf}, M: 1})
				} else {
					dims = append(dims, TopVal())
				}
			}
			return dims, info.exact, true
		default:
			return nil, false, false
		}
	}
}

// evalBuiltin models the int-valued builtins.
func (an *fnAnalysis) evalBuiltin(env []Val, ins *ir.Instr) Val {
	switch ins.Builtin {
	case "rand":
		return Val{I: Interval{0, posInf}, M: 1}
	case "abs":
		x := an.evalValue(env, ins.Args[0])
		if x.Bot() {
			return BotVal()
		}
		if x.I.Lo == negInf {
			// abs(MinInt64) wraps to MinInt64 itself: no bound survives.
			return TopVal()
		}
		hi := max64(abs64(x.I.Lo), abs64(x.I.Hi))
		lo := int64(0)
		if x.I.Lo > 0 {
			lo = x.I.Lo
		} else if x.I.Hi < 0 {
			lo = -x.I.Hi
		}
		return Val{I: Interval{lo, hi}, M: 1}.norm()
	case "min", "max":
		if ins.Typ.Elem != ast.Int {
			return TopVal()
		}
		a := an.evalValue(env, ins.Args[0])
		b := an.evalValue(env, ins.Args[1])
		if a.Bot() || b.Bot() {
			return BotVal()
		}
		if ins.Builtin == "min" {
			return Val{I: Interval{min64(a.I.Lo, b.I.Lo), min64(a.I.Hi, b.I.Hi)}, M: 1}.norm()
		}
		return Val{I: Interval{max64(a.I.Lo, b.I.Lo), max64(a.I.Hi, b.I.Hi)}, M: 1}.norm()
	case "dim":
		dims, _, ok := an.arrDims(env, ins.Args[0])
		if !ok {
			return Val{I: Interval{1, posInf}, M: 1}
		}
		k := an.evalValue(env, ins.Args[1])
		if c, isC := k.IsConst(); isC {
			if c >= 0 && c < int64(len(dims)) {
				return dims[c]
			}
			return BotVal() // definitely faults; no value flows on
		}
		out := BotVal()
		for _, d := range dims {
			out = out.Join(d)
		}
		return out
	}
	return typeTop(ins.Typ.Elem, ins.Typ.Dims)
}

// sweep transfers every reached block once from its converged in-state,
// rebuilding retVal, and calls visit (when non-nil) on each instruction
// with the block's running environment.
func (an *fnAnalysis) sweep(visit func(env []Val, ins *ir.Instr)) {
	an.retVal = BotVal()
	env := make([]Val, an.nv)
	var fn func(*ir.Instr, Val, bool)
	if visit != nil {
		fn = func(ins *ir.Instr, _ Val, _ bool) { visit(env, ins) }
	}
	for bi, b := range an.g.Blocks {
		if an.in[bi] == nil {
			continue
		}
		copy(env, an.in[bi])
		an.transfer(env, b, fn)
	}
}

// collectCalls rebuilds retVal (see sweep) and records the abstract
// arguments of every reachable call site (pass 1) for the interprocedural
// parameter join, indexed like calls (f's call sites in block order).
func (an *fnAnalysis) collectCalls(calls []*ir.Instr) []callSiteArgs {
	out := make([]callSiteArgs, len(calls))
	ci := 0
	an.sweep(func(env []Val, ins *ir.Instr) {
		if !isCallSite(ins) {
			return
		}
		for calls[ci] != ins {
			ci++ // a call site in an unreached block stays unreached
		}
		ca := callSiteArgs{reached: true}
		for _, arg := range ins.Args {
			t := arg.Type()
			if t.Dims > 0 {
				dims, exact, ok := an.arrDims(env, arg)
				info := arrInfo{}
				if ok {
					info.exact = exact
					info.dims = make([]int64, len(dims))
					for i, d := range dims {
						if d.I.Lo > 0 {
							info.dims[i] = d.I.Lo
						}
						if _, c := d.IsConst(); !c {
							info.exact = false
						}
					}
				}
				ca.arrs = append(ca.arrs, info)
				ca.vals = append(ca.vals, TopVal())
				continue
			}
			ca.arrs = append(ca.arrs, arrInfo{})
			ca.vals = append(ca.vals, an.evalValue(env, arg).Meet(typeTop(t.Elem, t.Dims)))
		}
		out[ci] = ca
		ci++
	})
	return out
}
