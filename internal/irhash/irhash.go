// Package irhash computes canonical-IR content hashes of functions.
//
// Every function gets a local sum — a SHA-256 of its own canonical IR — and
// a transitive content key H(f): a truncated SHA-256 of its local sum
// combined with the keys of everything it can call, so editing a callee
// changes the key of every (transitive) caller — the same bottom-up
// invalidation order the depcheck summaries use. Hashing works on the IR
// after all analysis passes (mem2reg, induction/reduction marking), so two
// sources that lower to identical annotated IR share a key; source
// positions and the function's own name are deliberately excluded, making
// whitespace edits, comment edits, and renames cache hits.
//
// Two caches key on these hashes: the incremental re-profiling store
// (internal/inccache) and the daemon's per-function front-half cache
// (internal/frontcache). A compile that feeds the front cache hashes the
// module once and hands the same Module to the profiling session.
package irhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"kremlin/internal/ir"
)

// Key is a truncated SHA-256 content hash. 128 bits keeps collision
// probability negligible at any plausible cache size while halving the
// filename and key-compare cost.
type Key [16]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Func is the per-function verdict of the content analysis.
type Func struct {
	// Local is the hash of the function's own canonical IR, and Pure
	// whether that IR is free of globals and impure builtins (LocalSum).
	Local [32]byte
	Pure  bool
	// Key is the transitive content key.
	Key Key
	// Sealed: no global reads or writes, no RNG or output builtins anywhere
	// in the function or its transitive callees, and all parameters scalar.
	// A sealed call's extent is a pure function of its argument values, so
	// an extent recorded once replays for any later call with the same
	// arguments (subject to the timeliness check at the call site).
	Sealed bool
}

// Module holds the content hashes of every function of one module.
type Module struct {
	Funcs map[*ir.Func]*Func
}

// impureBuiltins are the builtins that couple a function to state outside
// its frame: the runtime RNG chain and the observable-output chain.
var impureBuiltins = map[string]bool{
	"rand": true, "frand": true, "srand": true,
	"print": true, "printval": true, "printstr": true, "printnl": true,
}

// Canon is the canonical varint encoder the hashes are built from; the
// caches use it for their own keys and file formats.
type Canon struct{ Buf []byte }

// U appends an unsigned varint.
func (c *Canon) U(v uint64) { c.Buf = binary.AppendUvarint(c.Buf, v) }

// I appends a signed varint.
func (c *Canon) I(v int64) { c.Buf = binary.AppendVarint(c.Buf, v) }

// S appends a length-prefixed string.
func (c *Canon) S(s string) { c.U(uint64(len(s))); c.Buf = append(c.Buf, s...) }

// B appends a bool as one byte.
func (c *Canon) B(v bool) {
	if v {
		c.Buf = append(c.Buf, 1)
	} else {
		c.Buf = append(c.Buf, 0)
	}
}

// Global appends a global's declaration: name, element kind, extents
// and initializer.
func (c *Canon) Global(g *ir.Global) {
	c.S(g.Name)
	c.U(uint64(g.Elem))
	c.U(uint64(len(g.Dims)))
	for _, d := range g.Dims {
		c.I(d)
	}
	if g.Init != nil {
		c.value(g.Init)
	} else {
		c.U(5)
	}
}

// value appends an operand: an instruction by value ID, a constant by value.
func (c *Canon) value(v ir.Value) {
	switch a := v.(type) {
	case *ir.Instr:
		c.U(0)
		c.U(uint64(a.ID))
	case *ir.ConstInt:
		c.U(1)
		c.I(a.V)
	case *ir.ConstFloat:
		c.U(2)
		c.U(math.Float64bits(a.V))
	case *ir.ConstBool:
		c.U(3)
		c.B(a.V)
	default:
		c.U(4)
	}
}

// LocalSum hashes one function's own canonical IR: signature, CFG shape,
// and every instruction including the analysis annotations the runtime
// consumes (induction/reduction/BreakArg — they change profiling behavior,
// so they must change the key). Pos/EndPos and the function's own name are
// excluded; callees appear as name literals (their content is folded in
// transitively by Analyze). Returns the hash and whether the body is free
// of globals and impure builtins.
func LocalSum(f *ir.Func) (sum [32]byte, pure bool) {
	c := &Canon{Buf: make([]byte, 0, 1024)}
	pure = true
	c.U(uint64(f.Ret))
	c.U(uint64(len(f.Params)))
	for _, p := range f.Params {
		c.U(uint64(p.Typ.Elem))
		c.U(uint64(p.Typ.Dims))
	}
	c.U(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		c.U(uint64(b.ID))
		c.U(uint64(len(b.Preds)))
		for _, p := range b.Preds {
			c.U(uint64(p.ID))
		}
		c.U(uint64(len(b.Instrs)))
		for _, ins := range b.Instrs {
			c.U(uint64(ins.Op))
			c.U(uint64(ins.Bin))
			c.U(uint64(ins.Typ.Elem))
			c.U(uint64(ins.Typ.Dims))
			c.U(uint64(len(ins.Args)))
			for _, a := range ins.Args {
				c.value(a)
			}
			c.I(int64(ins.Slot))
			if g := ins.Global; g != nil {
				pure = false
				c.U(1)
				c.Global(g)
			} else {
				c.U(0)
			}
			if ins.Callee != nil {
				c.U(1)
				c.S(ins.Callee.Name)
			} else {
				c.U(0)
			}
			c.S(ins.Builtin)
			if impureBuiltins[ins.Builtin] {
				pure = false
			}
			c.S(ins.Aux)
			c.U(uint64(len(ins.Targets)))
			for _, t := range ins.Targets {
				c.U(uint64(t.ID))
			}
			c.B(ins.Induction)
			c.B(ins.Reduction)
			c.I(int64(ins.BreakArg))
			c.U(uint64(ins.ID))
		}
	}
	return sha256.Sum256(c.Buf), pure
}

// CallGraph is a module's direct call graph condensed into strongly
// connected components (mutual recursion).
type CallGraph struct {
	// Callees lists each function's distinct direct callees in first-call
	// order.
	Callees map[*ir.Func][]*ir.Func
	// SCCs are the components, callees first: every function a component
	// calls outside itself belongs to an earlier component.
	SCCs [][]*ir.Func
	// SCCOf maps a function to its component's index in SCCs.
	SCCOf map[*ir.Func]int
}

// Calls builds the call graph of mod with Tarjan's algorithm.
func Calls(mod *ir.Module) *CallGraph {
	n := len(mod.Funcs)
	cg := &CallGraph{
		Callees: make(map[*ir.Func][]*ir.Func, n),
		SCCOf:   make(map[*ir.Func]int, n),
	}
	for _, f := range mod.Funcs {
		var seen map[*ir.Func]bool
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpCall && ins.Callee != nil {
					if seen == nil {
						seen = make(map[*ir.Func]bool)
					}
					if !seen[ins.Callee] {
						seen[ins.Callee] = true
						cg.Callees[f] = append(cg.Callees[f], ins.Callee)
					}
				}
			}
		}
	}

	// Tarjan SCC; emission order is callees-first in the condensation.
	index := make(map[*ir.Func]int, n)
	low := make(map[*ir.Func]int, n)
	onStack := make(map[*ir.Func]bool, n)
	var stack []*ir.Func
	next := 0
	var strongconnect func(f *ir.Func)
	strongconnect = func(f *ir.Func) {
		index[f] = next
		low[f] = next
		next++
		stack = append(stack, f)
		onStack[f] = true
		for _, g := range cg.Callees[f] {
			if _, ok := index[g]; !ok {
				strongconnect(g)
				if low[g] < low[f] {
					low[f] = low[g]
				}
			} else if onStack[g] && index[g] < low[f] {
				low[f] = index[g]
			}
		}
		if low[f] == index[f] {
			var comp []*ir.Func
			for {
				g := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[g] = false
				cg.SCCOf[g] = len(cg.SCCs)
				comp = append(comp, g)
				if g == f {
					break
				}
			}
			cg.SCCs = append(cg.SCCs, comp)
		}
	}
	for _, f := range mod.Funcs {
		if _, ok := index[f]; !ok {
			strongconnect(f)
		}
	}
	return cg
}

// Recursive reports whether f takes part in recursion: its component has
// several members, or f calls itself.
func (cg *CallGraph) Recursive(f *ir.Func) bool {
	if len(cg.SCCs[cg.SCCOf[f]]) > 1 {
		return true
	}
	for _, g := range cg.Callees[f] {
		if g == f {
			return true
		}
	}
	return false
}

// Analyze computes the local sum, transitive key and sealed verdict of
// every function in the module. Strongly connected components of the call
// graph are processed callees first, so each key folds in the keys of
// everything reachable from it; all members of an SCC share the SCC
// signature, mixed with their own local sum so distinct members still get
// distinct keys.
func Analyze(mod *ir.Module) *Module { return AnalyzeWith(mod, nil) }

// AnalyzeWith is Analyze taking the local sum and purity bit of every
// function in known from its entry (Local and Pure) instead of hashing
// the function again.
func AnalyzeWith(mod *ir.Module, known map[*ir.Func]Func) *Module {
	n := len(mod.Funcs)
	facts := make(map[*ir.Func]*Func, n)
	for _, f := range mod.Funcs {
		ff, ok := known[f]
		if !ok {
			ff.Local, ff.Pure = LocalSum(f)
		}
		facts[f] = &Func{Local: ff.Local, Pure: ff.Pure}
	}
	cg := Calls(mod)

	contained := make([]bool, len(cg.SCCs))
	for si, comp := range cg.SCCs {
		ok := true
		var memberSums [][32]byte
		extKeys := make(map[Key]bool)
		for _, f := range comp {
			if !facts[f].Pure {
				ok = false
			}
			memberSums = append(memberSums, facts[f].Local)
			for _, g := range cg.Callees[f] {
				if cg.SCCOf[g] != si {
					extKeys[facts[g].Key] = true
					if !contained[cg.SCCOf[g]] {
						ok = false
					}
				}
			}
		}
		contained[si] = ok

		sort.Slice(memberSums, func(i, j int) bool {
			return string(memberSums[i][:]) < string(memberSums[j][:])
		})
		var extSorted []Key
		for k := range extKeys {
			extSorted = append(extSorted, k)
		}
		sort.Slice(extSorted, func(i, j int) bool {
			return string(extSorted[i][:]) < string(extSorted[j][:])
		})
		sig := Canon{Buf: make([]byte, 0, 64)}
		sig.U(uint64(len(memberSums)))
		for _, s := range memberSums {
			sig.Buf = append(sig.Buf, s[:]...)
		}
		sig.U(uint64(len(extSorted)))
		for _, k := range extSorted {
			sig.Buf = append(sig.Buf, k[:]...)
		}
		sccSig := sha256.Sum256(sig.Buf)

		for _, f := range comp {
			ff := facts[f]
			mix := make([]byte, 0, 64)
			mix = append(mix, ff.Local[:]...)
			mix = append(mix, sccSig[:]...)
			full := sha256.Sum256(mix)
			copy(ff.Key[:], full[:16])
			ff.Sealed = ok
			for _, p := range f.Params {
				if !p.Typ.IsScalar() {
					ff.Sealed = false
				}
			}
		}
	}
	return &Module{Funcs: facts}
}
