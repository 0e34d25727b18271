// Package krgen generates random, well-typed, deterministic, terminating
// Kr programs for differential testing: every generated program must
// compile, run identically under plain / gprof / HCPA execution, and
// satisfy the profiler's invariants. The generator is the repository's
// fuzzing harness for the whole pipeline.
//
// Generated programs are safe by construction:
//   - all loops are bounded counted loops whose induction variable is
//     never reassigned in the body;
//   - array subscripts are loop variables (optionally offset) reduced
//     modulo the array extent, and loop variables are non-negative;
//   - integer division and modulo use nonzero constant divisors;
//   - the call graph is acyclic (function i only calls functions > i);
//   - a final print of a digest over all globals makes behavioral
//     differences observable.
package krgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program.
type Config struct {
	Funcs     int // helper functions in addition to main
	Globals   int // global scalars + arrays
	MaxStmts  int // statements per block
	MaxDepth  int // statement nesting depth
	MaxExpr   int // expression tree depth
	LoopIters int // maximum loop trip count
}

// Default returns a configuration that exercises most constructs while
// keeping runs fast.
func Default() Config {
	return Config{Funcs: 3, Globals: 5, MaxStmts: 5, MaxDepth: 3, MaxExpr: 3, LoopIters: 6}
}

type gvar struct {
	name  string
	isArr bool
	dim   int
	float bool
}

type local struct {
	name  string
	float bool
	// loopVar marks loop counters: usable in subscripts, never assigned.
	loopVar bool
	// arr marks a 1-D array parameter (extent known only via dim()).
	arr bool
}

type fn struct {
	name     string
	retFloat bool
	params   []local
}

type generator struct {
	rng     *rand.Rand
	cfg     Config
	globals []gvar
	funcs   []fn
	sb      strings.Builder
	tmp     int
}

// Generate produces the source of one random program.
func Generate(seed int64, cfg Config) string {
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	g.emitGlobals()
	g.planFuncs()
	for i := range g.funcs {
		g.emitFunc(i)
	}
	g.emitMain()
	return g.sb.String()
}

func (g *generator) pf(format string, args ...interface{}) {
	fmt.Fprintf(&g.sb, format, args...)
}

func (g *generator) emitGlobals() {
	dims := []int{8, 12, 16}
	for i := 0; i < g.cfg.Globals; i++ {
		v := gvar{name: fmt.Sprintf("g%d", i), float: g.rng.Intn(2) == 0}
		typ := "int"
		if v.float {
			typ = "float"
		}
		if g.rng.Intn(3) > 0 {
			v.isArr = true
			v.dim = dims[g.rng.Intn(len(dims))]
			g.pf("%s %s[%d];\n", typ, v.name, v.dim)
		} else {
			g.pf("%s %s;\n", typ, v.name)
		}
		g.globals = append(g.globals, v)
	}
	// Guarantee one array of each element type so array arguments always
	// have a candidate.
	for _, fl := range []bool{false, true} {
		v := gvar{name: fmt.Sprintf("g%d", len(g.globals)), isArr: true, dim: 10, float: fl}
		typ := "int"
		if fl {
			typ = "float"
		}
		g.pf("%s %s[%d];\n", typ, v.name, v.dim)
		g.globals = append(g.globals, v)
	}
	g.pf("\n")
}

func (g *generator) planFuncs() {
	for i := 0; i < g.cfg.Funcs; i++ {
		f := fn{name: fmt.Sprintf("f%d", i), retFloat: g.rng.Intn(2) == 0}
		nparams := g.rng.Intn(3)
		for p := 0; p < nparams; p++ {
			f.params = append(f.params, local{
				name:  fmt.Sprintf("p%d", p),
				float: g.rng.Intn(2) == 0,
				arr:   g.rng.Intn(4) == 0,
			})
		}
		g.funcs = append(g.funcs, f)
	}
}

// scope tracks visible locals during statement generation.
type scope struct {
	locals []local
	// fnIndex is the generating function's index; callable functions have
	// strictly greater indexes (acyclicity). len(funcs) for main.
	fnIndex int
	// loopDepth > 0 permits break/continue.
	loopDepth int
}

func (g *generator) emitFunc(i int) {
	f := g.funcs[i]
	ret := "int"
	if f.retFloat {
		ret = "float"
	}
	g.pf("%s %s(", ret, f.name)
	for pi, p := range f.params {
		if pi > 0 {
			g.pf(", ")
		}
		pt := "int"
		if p.float {
			pt = "float"
		}
		if p.arr {
			g.pf("%s %s[]", pt, p.name)
		} else {
			g.pf("%s %s", pt, p.name)
		}
	}
	g.pf(") {\n")
	sc := &scope{locals: append([]local{}, f.params...), fnIndex: i}
	g.block(sc, 1, g.cfg.MaxDepth)
	g.pf("\treturn %s;\n}\n\n", g.expr(sc, f.retFloat, g.cfg.MaxExpr))
}

func (g *generator) emitMain() {
	g.pf("int main() {\n")
	sc := &scope{fnIndex: len(g.funcs)}
	g.block(sc, 1, g.cfg.MaxDepth)
	// Digest: make every global observable.
	g.pf("\tfloat digest = 0.0;\n")
	for _, v := range g.globals {
		if v.isArr {
			lv := fmt.Sprintf("d%s", v.name)
			g.pf("\tfor (int %s = 0; %s < %d; %s++) {\n", lv, lv, v.dim, lv)
			if v.float {
				g.pf("\t\tdigest = digest + %s[%s];\n", v.name, lv)
			} else {
				g.pf("\t\tdigest = digest + float(%s[%s] %% 1000);\n", v.name, lv)
			}
			g.pf("\t}\n")
		} else if v.float {
			g.pf("\tdigest = digest + %s;\n", v.name)
		} else {
			g.pf("\tdigest = digest + float(%s %% 1000);\n", v.name)
		}
	}
	g.pf("\tprint(\"digest\", digest);\n")
	g.pf("\treturn 0;\n}\n")
}

func (g *generator) indent(depth int) string { return strings.Repeat("\t", depth) }

func (g *generator) block(sc *scope, depth, budget int) {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	base := len(sc.locals)
	for s := 0; s < n; s++ {
		g.stmt(sc, depth, budget)
	}
	sc.locals = sc.locals[:base] // leave scope
}

func (g *generator) stmt(sc *scope, depth, budget int) {
	choices := []func(*scope, int, int){
		g.declStmt, g.assignStmt, g.assignStmt, g.arrayStmt, g.arrayStmt,
	}
	if budget > 0 {
		choices = append(choices, g.ifStmt, g.forStmt, g.forStmt, g.whileStmt)
	}
	if sc.loopDepth > 0 {
		choices = append(choices, g.breakContinueStmt)
	}
	if sc.fnIndex < len(g.funcs)+1 && g.callableCount(sc) > 0 {
		choices = append(choices, g.callStmt)
	}
	choices[g.rng.Intn(len(choices))](sc, depth, budget)
}

func (g *generator) callableCount(sc *scope) int { return len(g.funcs) - sc.fnIndex }

func (g *generator) declStmt(sc *scope, depth, budget int) {
	v := local{name: fmt.Sprintf("v%d_%d", depth, g.tmp), float: g.rng.Intn(2) == 0}
	g.tmp++
	typ := "int"
	if v.float {
		typ = "float"
	}
	g.pf("%s%s %s = %s;\n", g.indent(depth), typ, v.name, g.expr(sc, v.float, g.cfg.MaxExpr))
	sc.locals = append(sc.locals, v)
}

// assignable returns a random assignable scalar (local non-loop var or
// scalar global), or empty.
func (g *generator) assignable(sc *scope) (string, bool, bool) {
	var cands []struct {
		name  string
		float bool
	}
	for _, l := range sc.locals {
		if !l.loopVar && !l.arr {
			cands = append(cands, struct {
				name  string
				float bool
			}{l.name, l.float})
		}
	}
	for _, v := range g.globals {
		if !v.isArr {
			cands = append(cands, struct {
				name  string
				float bool
			}{v.name, v.float})
		}
	}
	if len(cands) == 0 {
		return "", false, false
	}
	c := cands[g.rng.Intn(len(cands))]
	return c.name, c.float, true
}

func (g *generator) assignStmt(sc *scope, depth, budget int) {
	name, isFloat, ok := g.assignable(sc)
	if !ok {
		g.declStmt(sc, depth, budget)
		return
	}
	switch g.rng.Intn(4) {
	case 0:
		g.pf("%s%s += %s;\n", g.indent(depth), name, g.expr(sc, isFloat, g.cfg.MaxExpr-1))
	case 1:
		g.pf("%s%s *= %s;\n", g.indent(depth), name, g.smallFactor(isFloat))
	default:
		g.pf("%s%s = %s;\n", g.indent(depth), name, g.expr(sc, isFloat, g.cfg.MaxExpr))
	}
}

// smallFactor keeps *= from overflowing/exploding.
func (g *generator) smallFactor(isFloat bool) string {
	if isFloat {
		return []string{"0.5", "1.25", "0.75"}[g.rng.Intn(3)]
	}
	return []string{"1", "2", "3"}[g.rng.Intn(3)]
}

func (g *generator) arrayStmt(sc *scope, depth, budget int) {
	arrs := g.arrayGlobals()
	if len(arrs) == 0 {
		g.assignStmt(sc, depth, budget)
		return
	}
	v := arrs[g.rng.Intn(len(arrs))]
	idx := g.subscript(sc, v.dim)
	if g.rng.Intn(3) == 0 {
		g.pf("%s%s[%s] += %s;\n", g.indent(depth), v.name, idx, g.expr(sc, v.float, g.cfg.MaxExpr-1))
	} else {
		g.pf("%s%s[%s] = %s;\n", g.indent(depth), v.name, idx, g.expr(sc, v.float, g.cfg.MaxExpr))
	}
}

func (g *generator) arrayGlobals() []gvar {
	var out []gvar
	for _, v := range g.globals {
		if v.isArr {
			out = append(out, v)
		}
	}
	return out
}

// subscript builds an in-bounds index: a loop variable (mod dim), an
// offset loop variable, or a constant.
func (g *generator) subscript(sc *scope, dim int) string {
	var loops []string
	for _, l := range sc.locals {
		if l.loopVar {
			loops = append(loops, l.name)
		}
	}
	if len(loops) > 0 && g.rng.Intn(4) != 0 {
		lv := loops[g.rng.Intn(len(loops))]
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("%s %% %d", lv, dim)
		}
		return fmt.Sprintf("(%s + %d) %% %d", lv, g.rng.Intn(5), dim)
	}
	return fmt.Sprintf("%d", g.rng.Intn(dim))
}

func (g *generator) ifStmt(sc *scope, depth, budget int) {
	g.pf("%sif (%s) {\n", g.indent(depth), g.cond(sc))
	g.block(sc, depth+1, budget-1)
	if g.rng.Intn(2) == 0 {
		g.pf("%s} else {\n", g.indent(depth))
		g.block(sc, depth+1, budget-1)
	}
	g.pf("%s}\n", g.indent(depth))
}

func (g *generator) forStmt(sc *scope, depth, budget int) {
	lv := fmt.Sprintf("i%d_%d", depth, g.tmp)
	g.tmp++
	iters := 2 + g.rng.Intn(g.cfg.LoopIters-1)
	g.pf("%sfor (int %s = 0; %s < %d; %s++) {\n", g.indent(depth), lv, lv, iters, lv)
	sc.locals = append(sc.locals, local{name: lv, loopVar: true})
	sc.loopDepth++
	g.block(sc, depth+1, budget-1)
	sc.loopDepth--
	sc.locals = sc.locals[:len(sc.locals)-1]
	g.pf("%s}\n", g.indent(depth))
}

// whileStmt emits a while loop bounded by an explicit counter, the shape
// real codes use for convergence loops. The counter increments first so a
// generated `continue` cannot skip it.
func (g *generator) whileStmt(sc *scope, depth, budget int) {
	wv := fmt.Sprintf("w%d_%d", depth, g.tmp)
	g.tmp++
	iters := 2 + g.rng.Intn(g.cfg.LoopIters-1)
	g.pf("%sint %s = 0;\n", g.indent(depth), wv)
	g.pf("%swhile (%s < %d) {\n", g.indent(depth), wv, iters)
	g.pf("%s%s = %s + 1;\n", g.indent(depth+1), wv, wv)
	sc.locals = append(sc.locals, local{name: wv, loopVar: true})
	sc.loopDepth++
	g.block(sc, depth+1, budget-1)
	sc.loopDepth--
	sc.locals = sc.locals[:len(sc.locals)-1]
	g.pf("%s}\n", g.indent(depth))
}

// breakContinueStmt emits a guarded break or continue.
func (g *generator) breakContinueStmt(sc *scope, depth, budget int) {
	kw := "break"
	if g.rng.Intn(2) == 0 {
		kw = "continue"
	}
	g.pf("%sif (%s) { %s; }\n", g.indent(depth), g.cond0(sc), kw)
}

func (g *generator) callStmt(sc *scope, depth, budget int) {
	callee := g.funcs[sc.fnIndex+g.rng.Intn(g.callableCount(sc))]
	var args []string
	for _, p := range callee.params {
		if p.arr {
			args = append(args, g.arrayArg(p.float))
			continue
		}
		args = append(args, g.expr(sc, p.float, g.cfg.MaxExpr-1))
	}
	call := fmt.Sprintf("%s(%s)", callee.name, strings.Join(args, ", "))
	if name, isFloat, ok := g.assignable(sc); ok && g.rng.Intn(2) == 0 {
		if isFloat == callee.retFloat || (isFloat && !callee.retFloat) {
			g.pf("%s%s = %s;\n", g.indent(depth), name, call)
			return
		}
		g.pf("%s%s = int(%s);\n", g.indent(depth), name, call)
		return
	}
	// Kr requires expression statements to be calls; discard via a decl.
	typ, cast := "int", ""
	if callee.retFloat {
		typ = "float"
	}
	v := local{name: fmt.Sprintf("c%d_%d", depth, g.tmp), float: callee.retFloat}
	g.tmp++
	g.pf("%s%s %s = %s%s;\n", g.indent(depth), typ, v.name, cast, call)
	sc.locals = append(sc.locals, v)
}

// cond builds a boolean expression.
func (g *generator) cond(sc *scope) string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	isFloat := g.rng.Intn(2) == 0
	c := fmt.Sprintf("%s %s %s",
		g.expr(sc, isFloat, g.cfg.MaxExpr-1), ops[g.rng.Intn(len(ops))], g.expr(sc, isFloat, g.cfg.MaxExpr-1))
	if g.rng.Intn(4) == 0 {
		join := "&&"
		if g.rng.Intn(2) == 0 {
			join = "||"
		}
		c = fmt.Sprintf("(%s) %s (%s)", c, join, g.cond0(sc))
	}
	return c
}

func (g *generator) cond0(sc *scope) string {
	return fmt.Sprintf("%s < %s", g.expr(sc, false, 1), g.expr(sc, false, 1))
}

// expr builds a well-typed expression of the requested scalar type.
func (g *generator) expr(sc *scope, isFloat bool, depth int) string {
	if depth <= 0 {
		return g.leaf(sc, isFloat)
	}
	switch g.rng.Intn(7) {
	case 0, 1:
		return g.leaf(sc, isFloat)
	case 2:
		op := []string{"+", "-", "*"}[g.rng.Intn(3)]
		return fmt.Sprintf("(%s %s %s)", g.expr(sc, isFloat, depth-1), op, g.expr(sc, isFloat, depth-1))
	case 3:
		if isFloat {
			// Division by a safely nonzero expression.
			return fmt.Sprintf("(%s / (fabs(%s) + 1.0))", g.expr(sc, true, depth-1), g.expr(sc, true, depth-1))
		}
		return fmt.Sprintf("(%s / %d)", g.expr(sc, false, depth-1), 1+g.rng.Intn(7))
	case 4:
		if isFloat {
			f := []string{"sqrt(fabs(%s))", "fabs(%s)", "floor(%s)", "sin(%s)", "cos(%s)"}[g.rng.Intn(5)]
			return fmt.Sprintf(f, g.expr(sc, true, depth-1))
		}
		return fmt.Sprintf("abs(%s)", g.expr(sc, false, depth-1))
	case 5:
		if isFloat {
			return fmt.Sprintf("float(%s)", g.expr(sc, false, depth-1))
		}
		return fmt.Sprintf("(%s %% %d)", g.expr(sc, false, depth-1), 2+g.rng.Intn(9))
	default:
		if isFloat {
			return fmt.Sprintf("min(%s, %s)", g.expr(sc, true, depth-1), g.expr(sc, true, depth-1))
		}
		return fmt.Sprintf("max(%s, %s)", g.expr(sc, false, depth-1), g.expr(sc, false, depth-1))
	}
}

// leaf yields a variable, array element, or literal of the right type.
func (g *generator) leaf(sc *scope, isFloat bool) string {
	var opts []string
	for _, l := range sc.locals {
		if l.arr {
			if l.float == isFloat {
				opts = append(opts, fmt.Sprintf("%s[%s %% dim(%s, 0)]", l.name, g.intIndex(sc), l.name))
			}
			continue
		}
		if l.float == isFloat {
			opts = append(opts, l.name)
		}
		if !isFloat && l.loopVar {
			opts = append(opts, l.name)
		}
	}
	for _, v := range g.globals {
		if v.float != isFloat {
			continue
		}
		if v.isArr {
			opts = append(opts, fmt.Sprintf("%s[%s]", v.name, g.subscript(sc, v.dim)))
		} else {
			opts = append(opts, v.name)
		}
	}
	if len(opts) > 0 && g.rng.Intn(3) != 0 {
		return opts[g.rng.Intn(len(opts))]
	}
	if isFloat {
		return fmt.Sprintf("%d.%d", g.rng.Intn(20), g.rng.Intn(100))
	}
	return fmt.Sprintf("%d", g.rng.Intn(50))
}

// arrayArg picks a global array of the right element type to pass as an
// array argument (one always exists: ensureArrays adds them).
func (g *generator) arrayArg(isFloat bool) string {
	for _, v := range g.globals {
		if v.isArr && v.float == isFloat {
			return v.name
		}
	}
	return "" // unreachable: ensureArrays guarantees both kinds
}

// intIndex returns a non-negative int expression for subscripting.
func (g *generator) intIndex(sc *scope) string {
	for _, l := range sc.locals {
		if l.loopVar && g.rng.Intn(2) == 0 {
			return l.name
		}
	}
	return fmt.Sprintf("%d", g.rng.Intn(32))
}
