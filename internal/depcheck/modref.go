// Bottom-up mod/ref call summaries: which globals and array parameters a
// function (transitively) reads or writes, and whether it performs ordered
// side effects. Computed as a fixpoint so mutual recursion is handled; the
// sets only grow, so the iteration terminates.
package depcheck

import (
	"crypto/sha256"
	"sort"

	"kremlin/internal/cfg"
	"kremlin/internal/frontcache"
	"kremlin/internal/ir"
	"kremlin/internal/irhash"
	"kremlin/internal/regions"
)

// Summary is the mod/ref summary of one function, at whole-object
// granularity. Parameter effects are indices into the caller's argument
// list; effects on function-local arrays that do not escape through a
// return value are invisible here (each call allocates fresh ones).
type Summary struct {
	ReadGlobals  []*ir.Global
	WriteGlobals []*ir.Global
	ReadParams   []int // indices of array parameters read
	WriteParams  []int // indices of array parameters written
	// MustWriteGlobals are scalar globals definitely stored on every call
	// that returns. Whole-object summaries lose the callee's internal
	// ordering, so plain WriteGlobals can never prove a kill; a must-write
	// can.
	MustWriteGlobals []*ir.Global
	// ExposedReadGlobals are scalar globals that every returning call reads
	// before anything could have written them: the callee definitely
	// observes the state from before the call. Only exposed reads can anchor
	// a *definite* cross-iteration dependence through a call.
	ExposedReadGlobals []*ir.Global
	Impure             bool // RNG or I/O side effects, possibly via callees
	RNG                bool // the impurity involves the RNG state
	UncondImpure       bool // an impure effect happens on every call that returns
	Opaque             bool // touches memory the analysis cannot attribute
}

// mustWrites reports whether g is in MustWriteGlobals.
func (s *Summary) mustWrites(g *ir.Global) bool {
	for _, x := range s.MustWriteGlobals {
		if x == g {
			return true
		}
	}
	return false
}

// exposedRead reports whether g is in ExposedReadGlobals.
func (s *Summary) exposedRead(g *ir.Global) bool {
	for _, x := range s.ExposedReadGlobals {
		if x == g {
			return true
		}
	}
	return false
}

type sumBuild struct {
	readG, writeG map[*ir.Global]bool
	mustWG        map[*ir.Global]bool
	exposedG      map[*ir.Global]bool
	readP, writeP map[int]bool
	impure        bool
	rng           bool
	uncond        bool
	opaque        bool
}

func newSumBuild() *sumBuild {
	return &sumBuild{
		readG:    make(map[*ir.Global]bool),
		writeG:   make(map[*ir.Global]bool),
		mustWG:   make(map[*ir.Global]bool),
		exposedG: make(map[*ir.Global]bool),
		readP:    make(map[int]bool),
		writeP:   make(map[int]bool),
	}
}

// merge folds o into s and reports whether s grew.
func (s *sumBuild) merge(o *sumBuild) bool {
	changed := false
	for g := range o.readG {
		if !s.readG[g] {
			s.readG[g] = true
			changed = true
		}
	}
	for g := range o.writeG {
		if !s.writeG[g] {
			s.writeG[g] = true
			changed = true
		}
	}
	for g := range o.mustWG {
		if !s.mustWG[g] {
			s.mustWG[g] = true
			changed = true
		}
	}
	for p := range o.readP {
		if !s.readP[p] {
			s.readP[p] = true
			changed = true
		}
	}
	for p := range o.writeP {
		if !s.writeP[p] {
			s.writeP[p] = true
			changed = true
		}
	}
	grow := func(dst *bool, src bool) {
		if src && !*dst {
			*dst = true
			changed = true
		}
	}
	grow(&s.impure, o.impure)
	grow(&s.rng, o.rng)
	grow(&s.uncond, o.uncond)
	grow(&s.opaque, o.opaque)
	return changed
}

// funcCFG is the control-flow view a summary scan reads.
type funcCFG struct {
	g     *cfg.Graph
	idom  []int
	exits []int // blocks without successors
}

// summarize computes the mod/ref summary of every function of prog,
// strongly connected component by component, callees first. Both phases
// are monotone (sets only grow), so iterating each component to its own
// fixpoint, against the final summaries of the components it calls,
// reaches the same least fixpoint a whole-module iteration would; a
// component without recursion needs one scan per phase. The scans use the
// CFGs and dominators the region analysis built. fc, when non-nil, caches
// each function's summary (see summaryCache).
func summarize(prog *regions.Program, fc *frontcache.Session) map[*ir.Func]*Summary {
	m := prog.Module
	cgr := irhash.Calls(m)
	builds := make(map[*ir.Func]*sumBuild, len(m.Funcs))
	cfgOf := func(f *ir.Func) *funcCFG {
		fi := prog.PerFunc[f]
		c := &funcCFG{g: fi.Graph, idom: fi.Idom}
		for i, b := range f.Blocks {
			if len(b.Succs) == 0 {
				c.exits = append(c.exits, i)
			}
		}
		return c
	}
	var sc *summaryCache
	if fc != nil {
		sc = newSummaryCache(m, cgr, fc)
	}
	for _, comp := range cgr.SCCs {
		recursive := len(comp) > 1 || cgr.Recursive(comp[0])
		if sc != nil && sc.load(comp, recursive, builds) {
			continue
		}
		cfgs := make([]*funcCFG, len(comp))
		for i, f := range comp {
			builds[f] = newSumBuild()
			cfgs[i] = cfgOf(f)
		}
		// Phase 1: the may/must effect sets.
		for changed := true; changed; {
			changed = false
			for i, f := range comp {
				if builds[f].merge(scanFunc(f, cfgs[i], builds)) {
					changed = true
				}
			}
			changed = changed && recursive
		}
		// Phase 2: exposed reads. Exposure shrinks as may-write sets grow,
		// so it runs after phase 1 has converged; against the final
		// may-writes it is again a growing (monotone) fixpoint.
		for changed := true; changed; {
			changed = false
			for i, f := range comp {
				for _, g := range exposedScan(f, cfgs[i], builds) {
					if !builds[f].exposedG[g] {
						builds[f].exposedG[g] = true
						changed = true
					}
				}
			}
			changed = changed && recursive
		}
		if sc != nil {
			sc.store(comp, builds)
		}
	}
	out := make(map[*ir.Func]*Summary, len(m.Funcs))
	for _, f := range m.Funcs {
		out[f] = builds[f].finish()
	}
	return out
}

// scanFunc computes f's summary from its body and the current summaries of
// its callees.
func scanFunc(f *ir.Func, c *funcCFG, builds map[*ir.Func]*sumBuild) *sumBuild {
	s := newSumBuild()
	g, idom, exits := c.g, c.idom, c.exits
	// dominatesExits: the instruction executes on every call that returns.
	dominatesExits := func(ins *ir.Instr) bool {
		bi := g.Index(ins.Block)
		for _, e := range exits {
			if !cfg.Dominates(idom, bi, e) {
				return false
			}
		}
		return len(exits) > 0
	}

	// noteObject records an effect on the object behind a cell operand.
	noteObject := func(obj object, write bool) {
		switch {
		case obj.global != nil:
			if write {
				s.writeG[obj.global] = true
			} else {
				s.readG[obj.global] = true
			}
		case obj.param != nil:
			if write {
				s.writeP[obj.param.Slot] = true
			} else {
				s.readP[obj.param.Slot] = true
			}
		case obj.alloc != nil:
			// Function-local array: fresh per call, invisible to callers.
		default:
			s.opaque = true
		}
	}

	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			switch ins.Op {
			case ir.OpLoad:
				obj, _, _ := resolveCell(ins.Args[0])
				noteObject(obj, false)
			case ir.OpStore:
				obj, _, _ := resolveCell(ins.Args[0])
				noteObject(obj, true)
				if obj.global != nil && !obj.global.IsArray() && dominatesExits(ins) {
					s.mustWG[obj.global] = true
				}
			case ir.OpBuiltin:
				switch ins.Builtin {
				case "rand", "frand", "srand":
					s.impure = true
					s.rng = true
					if dominatesExits(ins) {
						s.uncond = true
					}
				case "printval", "printstr", "printnl":
					s.impure = true
					if dominatesExits(ins) {
						s.uncond = true
					}
				}
			case ir.OpCall:
				cs := builds[ins.Callee]
				if cs == nil {
					s.opaque = true
					continue
				}
				s.impure = s.impure || cs.impure
				s.rng = s.rng || cs.rng
				s.opaque = s.opaque || cs.opaque
				if cs.uncond && dominatesExits(ins) {
					s.uncond = true
				}
				if dominatesExits(ins) {
					for cg := range cs.mustWG {
						s.mustWG[cg] = true
					}
				}
				// Map the callee's parameter effects through our arguments.
				mapParam := func(idx int, write bool) {
					if idx >= len(ins.Args) {
						s.opaque = true
						return
					}
					obj, _, _ := resolveCell(ins.Args[idx])
					noteObject(obj, write)
				}
				for p := range cs.readP {
					mapParam(p, false)
				}
				for p := range cs.writeP {
					mapParam(p, true)
				}
				for cg := range cs.readG {
					s.readG[cg] = true
				}
				for cg := range cs.writeG {
					s.writeG[cg] = true
				}
			}
		}
	}
	return s
}

// exposedScan returns the scalar globals that f definitely reads before any
// possible write on every returning call, given the converged may-write
// summaries and the callees' current exposure sets.
func exposedScan(f *ir.Func, c *funcCFG, builds map[*ir.Func]*sumBuild) []*ir.Global {
	g, idom, exits := c.g, c.idom, c.exits
	if len(exits) == 0 {
		return nil
	}
	dominatesExits := func(bi int) bool {
		for _, e := range exits {
			if !cfg.Dominates(idom, bi, e) {
				return false
			}
		}
		return true
	}

	// reach[i][j]: a path of at least one edge from block i to block j
	// (reach[i][i] is true only inside a cycle).
	n := len(f.Blocks)
	reach := make([][]bool, n)
	for i := 0; i < n; i++ {
		reach[i] = make([]bool, n)
		stack := append([]int(nil), g.Succs[i]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[i][x] {
				continue
			}
			reach[i][x] = true
			stack = append(stack, g.Succs[x]...)
		}
	}

	// Per scalar global: the instructions that read it (directly, or via a
	// call whose callee has an exposed read) and those that may write it.
	type site struct {
		ins *ir.Instr
		bi  int
		pos int
	}
	readers := make(map[*ir.Global][]site)
	writers := make(map[*ir.Global][]site)
	for bi, b := range f.Blocks {
		for pi, ins := range b.Instrs {
			at := site{ins, bi, pi}
			switch ins.Op {
			case ir.OpLoad:
				if obj, _, _ := resolveCell(ins.Args[0]); obj.global != nil && !obj.global.IsArray() {
					readers[obj.global] = append(readers[obj.global], at)
				}
			case ir.OpStore:
				if obj, _, _ := resolveCell(ins.Args[0]); obj.global != nil && !obj.global.IsArray() {
					writers[obj.global] = append(writers[obj.global], at)
				}
			case ir.OpCall:
				cs := builds[ins.Callee]
				if cs == nil {
					continue
				}
				for cg := range cs.exposedG {
					readers[cg] = append(readers[cg], at)
				}
				for cg := range cs.writeG {
					if !cg.IsArray() {
						writers[cg] = append(writers[cg], at)
					}
				}
			}
		}
	}

	var out []*ir.Global
	for gl, rs := range readers {
		exposed := false
		for _, r := range rs {
			if !dominatesExits(r.bi) {
				continue
			}
			preceded := false
			for _, w := range writers[gl] {
				if w.ins == r.ins {
					continue // a call's own write cannot precede its exposed read
				}
				if w.bi == r.bi && w.pos < r.pos {
					preceded = true
					break
				}
				if reach[w.bi][r.bi] {
					preceded = true
					break
				}
			}
			if !preceded {
				exposed = true
				break
			}
		}
		if exposed {
			out = append(out, gl)
		}
	}
	return out
}

func (s *sumBuild) finish() *Summary {
	sum := &Summary{
		Impure:       s.impure,
		RNG:          s.rng,
		UncondImpure: s.uncond,
		Opaque:       s.opaque,
	}
	sum.ReadGlobals = sortGlobals(s.readG)
	sum.WriteGlobals = sortGlobals(s.writeG)
	sum.MustWriteGlobals = sortGlobals(s.mustWG)
	sum.ExposedReadGlobals = sortGlobals(s.exposedG)
	sum.ReadParams = sortInts(s.readP)
	sum.WriteParams = sortInts(s.writeP)
	return sum
}

func sortGlobals(set map[*ir.Global]bool) []*ir.Global {
	out := make([]*ir.Global, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func sortInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// summaryCache keeps mod/ref summaries in the front cache.
//
// A function outside recursion is keyed on its exact inputs: its local
// content sum and the digest of each distinct callee's summary, in
// first-call order. A member of a recursive component reads summaries that
// depend on its own, so it is keyed on its transitive content key, which
// covers the component and everything it calls. Entries name globals
// rather than point to them; a hit resolves the names in the current
// module.
type summaryCache struct {
	fc      *frontcache.Session
	calls   *irhash.CallGraph
	globals map[string]*ir.Global
	digests map[*ir.Func][32]byte
	keys    map[*ir.Func]frontcache.Key
}

// summaryEntry is one cached summary. digest covers everything a caller's
// scan reads from it, globals by name, element type and extents.
type summaryEntry struct {
	readG, writeG, mustWG, exposedG []string
	readP, writeP                   []int
	impure, rng, uncond, opaque     bool
	digest                          [32]byte
}

// Bytes estimates the memory e holds (frontcache.Value).
func (e *summaryEntry) Bytes() int64 {
	n := int64(200 + 8*(len(e.readP)+len(e.writeP)))
	for _, names := range [][]string{e.readG, e.writeG, e.mustWG, e.exposedG} {
		for _, s := range names {
			n += 16 + int64(len(s))
		}
	}
	return n
}

func newSummaryCache(m *ir.Module, calls *irhash.CallGraph, fc *frontcache.Session) *summaryCache {
	sc := &summaryCache{
		fc:      fc,
		calls:   calls,
		globals: make(map[string]*ir.Global, len(m.Globals)),
		digests: make(map[*ir.Func][32]byte, len(m.Funcs)),
		keys:    make(map[*ir.Func]frontcache.Key, len(m.Funcs)),
	}
	for _, g := range m.Globals {
		sc.globals[g.Name] = g
	}
	return sc
}

func (sc *summaryCache) key(f *ir.Func, recursive bool) frontcache.Key {
	c := &irhash.Canon{}
	if recursive {
		k := sc.fc.Hashes.Funcs[f].Key
		c.S("modref-scc")
		c.Buf = append(c.Buf, k[:]...)
		return sc.fc.Key(c.Buf)
	}
	local := sc.fc.Local(f)
	c.S("modref")
	c.Buf = append(c.Buf, local[:]...)
	for _, g := range sc.calls.Callees[f] {
		d := sc.digests[g]
		c.Buf = append(c.Buf, d[:]...)
	}
	return sc.fc.Key(c.Buf)
}

// load fills builds for every member of comp from the cache and reports
// whether all of them hit; on any miss the component is recomputed whole.
func (sc *summaryCache) load(comp []*ir.Func, recursive bool, builds map[*ir.Func]*sumBuild) bool {
	entries := make([]*summaryEntry, len(comp))
	hit := true
	for i, f := range comp {
		k := sc.key(f, recursive)
		sc.keys[f] = k
		if v, ok := sc.fc.Get(frontcache.KindModRef, k); ok {
			entries[i] = v.(*summaryEntry)
		} else {
			hit = false
		}
	}
	if !hit {
		return false
	}
	for i, f := range comp {
		e := entries[i]
		builds[f] = &sumBuild{
			readG: sc.globalSet(e.readG), writeG: sc.globalSet(e.writeG),
			mustWG: sc.globalSet(e.mustWG), exposedG: sc.globalSet(e.exposedG),
			readP: intSet(e.readP), writeP: intSet(e.writeP),
			impure: e.impure, rng: e.rng, uncond: e.uncond, opaque: e.opaque,
		}
		sc.digests[f] = e.digest
	}
	return true
}

// store caches the freshly computed summaries of comp.
func (sc *summaryCache) store(comp []*ir.Func, builds map[*ir.Func]*sumBuild) {
	for _, f := range comp {
		s := builds[f]
		e := &summaryEntry{
			readP: sortInts(s.readP), writeP: sortInts(s.writeP),
			impure: s.impure, rng: s.rng, uncond: s.uncond, opaque: s.opaque,
		}
		c := &irhash.Canon{}
		c.S("modref-summary")
		e.readG = encodeGlobals(c, s.readG)
		e.writeG = encodeGlobals(c, s.writeG)
		e.mustWG = encodeGlobals(c, s.mustWG)
		e.exposedG = encodeGlobals(c, s.exposedG)
		for _, ps := range [][]int{e.readP, e.writeP} {
			c.U(uint64(len(ps)))
			for _, p := range ps {
				c.U(uint64(p))
			}
		}
		for _, b := range []bool{e.impure, e.rng, e.uncond, e.opaque} {
			c.B(b)
		}
		e.digest = sha256.Sum256(c.Buf)
		sc.fc.Put(sc.keys[f], e)
		sc.digests[f] = e.digest
	}
}

// encodeGlobals appends the set's declarations sorted by name and returns
// the names.
func encodeGlobals(c *irhash.Canon, set map[*ir.Global]bool) []string {
	gs := make([]*ir.Global, 0, len(set))
	for g := range set {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	names := make([]string, len(gs))
	c.U(uint64(len(gs)))
	for i, g := range gs {
		names[i] = g.Name
		c.S(g.Name)
		c.U(uint64(g.Elem))
		c.U(uint64(len(g.Dims)))
		for _, d := range g.Dims {
			c.I(d)
		}
	}
	return names
}

// globalSet resolves names in the current module; an empty set stays nil
// (a loaded build is only ever read).
func (sc *summaryCache) globalSet(names []string) map[*ir.Global]bool {
	if len(names) == 0 {
		return nil
	}
	set := make(map[*ir.Global]bool, len(names))
	for _, n := range names {
		set[sc.globals[n]] = true
	}
	return set
}

func intSet(xs []int) map[int]bool {
	if len(xs) == 0 {
		return nil
	}
	set := make(map[int]bool, len(xs))
	for _, x := range xs {
		set[x] = true
	}
	return set
}
