// Package krfuzz is the repository's program fuzzer: a seeded,
// type-directed random generator of Kr programs built directly at the AST
// level, plus a differential and metamorphic oracle that cross-checks
// every pipeline configuration (uninstrumented vs instrumented
// interpretation, bytecode VM vs tree interpreter, dependence breaking on
// vs off) and verifies the HCPA profile invariants on every region, and a
// shrinker that reduces a failing program to a minimal reproducer.
//
// Generated programs are safe by construction — every one compiles, runs
// deterministically, and terminates:
//   - loops are counted (for) or counter-bounded (while), and the counter
//     is never reassigned in the body;
//   - array subscripts are reduced modulo the array extent and built from
//     non-negative values;
//   - integer division and modulo use positive constant divisors, float
//     division divides by fabs(x)+1;
//   - the call graph is acyclic (function i only calls functions j > i);
//   - a digest of every global is printed at exit, so any behavioral
//     difference between two pipeline configurations is observable.
//
// Unlike internal/krgen (the earlier, string-template generator kept for
// its independent coverage), krfuzz builds ast nodes and renders them with
// ast.Print, which lets the shrinker operate structurally and ties the
// generator to the grammar the parser actually accepts.
package krfuzz

import (
	"math/rand"

	"kremlin/internal/ast"
	"kremlin/internal/token"
)

// Construct enumerates the language/analysis features a generated program
// can contain. The campaign reports which constructs its corpus exercised.
type Construct int

// The generator's construct vocabulary.
const (
	ForLoop Construct = iota
	WhileLoop
	NestedLoop
	If
	IfElse
	Break
	Continue
	EarlyReturn
	Call
	ArrayRead
	ArrayWrite
	Array2D
	ArrayParam
	Reduction
	IntArith
	FloatArith
	IntDivMod
	BoolOp
	Not
	Neg
	IncDec
	Conversion
	MathBuiltin
	MinMax
	NumConstructs
)

var constructNames = [NumConstructs]string{
	"for-loop", "while-loop", "nested-loop", "if", "if-else", "break",
	"continue", "early-return", "call", "array-read", "array-write",
	"array-2d", "array-param", "reduction", "int-arith", "float-arith",
	"int-div-mod", "bool-op", "not", "neg", "inc-dec", "conversion",
	"math-builtin", "min-max",
}

func (c Construct) String() string {
	if c < 0 || c >= NumConstructs {
		return "?"
	}
	return constructNames[c]
}

// Coverage counts, per construct, how many times it was generated.
type Coverage [NumConstructs]int

// Merge adds o's counts into cv.
func (cv *Coverage) Merge(o Coverage) {
	for i := range cv {
		cv[i] += o[i]
	}
}

// Missing returns the constructs with a zero count.
func (cv Coverage) Missing() []Construct {
	var out []Construct
	for i, n := range cv {
		if n == 0 {
			out = append(out, Construct(i))
		}
	}
	return out
}

// Config bounds the generated program shape.
type Config struct {
	Funcs     int // helper functions in addition to main
	Globals   int // random global scalars/arrays (plus 3 guaranteed arrays)
	MaxStmts  int // statements per block
	MaxDepth  int // statement nesting depth
	MaxExpr   int // expression tree depth
	LoopIters int // maximum loop trip count
}

// Default returns the configuration used by the tier-1 property test:
// small enough to run hundreds of programs in seconds, rich enough that a
// modest corpus covers every construct.
func Default() Config {
	return Config{Funcs: 3, Globals: 5, MaxStmts: 5, MaxDepth: 3, MaxExpr: 3, LoopIters: 6}
}

// Stress returns a deeper, wider configuration for the fuzz campaign.
func Stress() Config {
	return Config{Funcs: 5, Globals: 8, MaxStmts: 7, MaxDepth: 4, MaxExpr: 4, LoopIters: 8}
}

// Program is one generated Kr program.
type Program struct {
	Seed     int64
	File     *ast.File
	Coverage Coverage
	// gen retains the generator tables so Mutate can reuse the generator
	// as an editor (regenerate one function body against the same
	// globals/signatures).
	gen *generator
}

// Source renders the program to canonical Kr source.
func (p *Program) Source() string { return ast.Print(p.File) }

// Generate produces the program for one seed. The same (seed, cfg) pair
// always yields the same program.
func Generate(seed int64, cfg Config) *Program {
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	g.file = &ast.File{Name: "krfuzz.kr"}
	g.emitGlobals()
	g.planFuncs()
	// Bodies are generated highest index first so every call site can
	// consult its callee's estimated cost; the declarations are emitted in
	// index order regardless.
	for i := len(g.funcs) - 1; i >= 0; i-- {
		g.emitFunc(i)
	}
	for i := range g.funcs {
		g.file.Funcs = append(g.file.Funcs, g.funcs[i].decl)
	}
	g.emitMain()
	return &Program{Seed: seed, File: g.file, Coverage: g.cov, gen: g}
}

// gvar is a global variable's generator-side descriptor.
type gvar struct {
	name  string
	float bool
	dims  []int64 // nil: scalar; len 1/2: array
}

// lvar is a local (or parameter) descriptor.
type lvar struct {
	name    string
	float   bool
	loopVar bool // loop counter: usable in subscripts, never assigned
	arr     bool // 1-D array parameter; extent via dim(name, 0)
}

type fn struct {
	name     string
	retFloat bool
	params   []lvar
	decl     *ast.FuncDecl
	// cost is the generator's upper estimate of the steps one invocation
	// executes, calls included. Call sites consult it to keep total run
	// time bounded now that generated calls actually execute.
	cost int64
}

// scope tracks visible locals during generation of one function.
type scope struct {
	locals []lvar
	// fnIndex of the function being generated; callable helpers have
	// strictly greater indexes. len(funcs) for main.
	fnIndex   int
	loopDepth int
	// retFloat is meaningful only for helpers (early returns).
	retFloat int // -1: main (no early returns), 0: int, 1: float
	// mult is the product of the enclosing loops' trip counts inside the
	// current function: the execution multiplier of the statement being
	// generated, used for work accounting.
	mult int64
}

type generator struct {
	rng     *rand.Rand
	cfg     Config
	file    *ast.File
	globals []gvar
	funcs   []fn
	cov     Coverage
	tmp     int
	// curCost accumulates the estimated step cost of the function being
	// generated (statement cost × loop multiplier).
	curCost int64
}

// fnWorkBudget caps one function's estimated per-invocation step cost.
// Call sites stop being generated once the budget is spent, which bounds
// the whole program's runtime: main executes at most its own budget, and
// every callee's cost is already folded into the caller's accounting.
const fnWorkBudget = 250_000

func (g *generator) charge(sc *scope, n int64) { g.curCost += sc.mult * n }

func (g *generator) mark(c Construct) { g.cov[c]++ }

func (g *generator) fresh(prefix string) string {
	g.tmp++
	return prefix + itoa(g.tmp)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- AST construction helpers (positions are zero; the oracle compiles
// the printed source, which re-derives real positions). ----

func id(name string) *ast.Ident   { return &ast.Ident{Name: name} }
func intLit(v int64) ast.Expr     { return &ast.IntLit{Value: v} }
func floatLit(v float64) ast.Expr { return &ast.FloatLit{Value: v} }
func bin(op token.Kind, x, y ast.Expr) ast.Expr {
	return &ast.BinaryExpr{Op: op, X: x, Y: y}
}
func call(name string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Name: name, Args: args}
}
func index1(arr string, idx ast.Expr) ast.Expr {
	return &ast.IndexExpr{X: id(arr), Index: idx}
}
func index2(arr string, i, j ast.Expr) ast.Expr {
	return &ast.IndexExpr{X: &ast.IndexExpr{X: id(arr), Index: i}, Index: j}
}
func assign(lhs ast.Expr, op token.Kind, rhs ast.Expr) ast.Stmt {
	return &ast.AssignStmt{LHS: lhs, Op: op, RHS: rhs}
}
func declStmt(name string, elem ast.BasicKind, init ast.Expr) ast.Stmt {
	return &ast.DeclStmt{Decl: &ast.VarDecl{Name: name, Elem: elem, Init: init}}
}

func elemOf(float bool) ast.BasicKind {
	if float {
		return ast.Float
	}
	return ast.Int
}

// ---- globals ----

func (g *generator) emitGlobals() {
	dims := []int64{8, 12, 16}
	for i := 0; i < g.cfg.Globals; i++ {
		v := gvar{name: "g" + itoa(i), float: g.rng.Intn(2) == 0}
		if g.rng.Intn(3) > 0 {
			v.dims = []int64{dims[g.rng.Intn(len(dims))]}
		}
		g.addGlobal(v)
	}
	// Guarantee one 1-D array of each element type (array-argument
	// candidates) and one 2-D array.
	n := len(g.globals)
	g.addGlobal(gvar{name: "g" + itoa(n), dims: []int64{10}})
	g.addGlobal(gvar{name: "g" + itoa(n+1), float: true, dims: []int64{10}})
	g.addGlobal(gvar{name: "m" + itoa(n+2), float: g.rng.Intn(2) == 0, dims: []int64{6, 5}})
}

func (g *generator) addGlobal(v gvar) {
	d := &ast.VarDecl{Name: v.name, Elem: elemOf(v.float)}
	for _, dim := range v.dims {
		d.Dims = append(d.Dims, intLit(dim))
	}
	g.file.Globals = append(g.file.Globals, d)
	g.globals = append(g.globals, v)
}

func (g *generator) planFuncs() {
	for i := 0; i < g.cfg.Funcs; i++ {
		f := fn{name: "f" + itoa(i), retFloat: g.rng.Intn(2) == 0}
		nparams := g.rng.Intn(3)
		for p := 0; p < nparams; p++ {
			f.params = append(f.params, lvar{
				name:  "p" + itoa(p),
				float: g.rng.Intn(2) == 0,
				arr:   g.rng.Intn(4) == 0,
			})
		}
		g.funcs = append(g.funcs, f)
	}
}

// ---- functions ----

func (g *generator) emitFunc(i int) {
	f := &g.funcs[i]
	d := &ast.FuncDecl{Name: f.name, Ret: elemOf(f.retFloat)}
	for _, p := range f.params {
		pd := &ast.ParamDecl{Name: p.name, Elem: elemOf(p.float)}
		if p.arr {
			pd.NumDims = 1
			g.mark(ArrayParam)
		}
		d.Params = append(d.Params, pd)
	}
	ret := 0
	if f.retFloat {
		ret = 1
	}
	sc := &scope{locals: append([]lvar{}, f.params...), fnIndex: i, retFloat: ret, mult: 1}
	g.curCost = 0
	d.Body = g.block(sc, g.cfg.MaxDepth)
	d.Body.Stmts = append(d.Body.Stmts,
		&ast.ReturnStmt{Result: g.expr(sc, f.retFloat, g.cfg.MaxExpr)})
	f.decl = d
	f.cost = g.curCost + 8 // call/return overhead
}

func (g *generator) emitMain() {
	d := &ast.FuncDecl{Name: "main", Ret: ast.Int}
	sc := &scope{fnIndex: len(g.funcs), retFloat: -1, mult: 1}
	g.curCost = 0
	body := &ast.Block{}
	// Seed the first arrays with input-like data so runs do more than
	// shuffle zeros.
	for i, v := range g.globals {
		if v.dims == nil || i > 3 || len(v.dims) != 1 {
			continue
		}
		lv := g.fresh("s")
		var rhs ast.Expr
		if v.float {
			rhs = bin(token.MUL, call("float", bin(token.REM, id(lv), intLit(7))), floatLit(0.5))
		} else {
			rhs = bin(token.REM, bin(token.MUL, id(lv), intLit(3)), intLit(11))
		}
		body.Stmts = append(body.Stmts, g.countedFor(lv, v.dims[0],
			&ast.Block{Stmts: []ast.Stmt{assign(index1(v.name, id(lv)), token.ASSIGN, rhs)}}))
	}
	main := g.block(sc, g.cfg.MaxDepth)
	body.Stmts = append(body.Stmts, main.Stmts...)
	body.Stmts = append(body.Stmts, g.digest()...)
	body.Stmts = append(body.Stmts, &ast.ReturnStmt{Result: intLit(0)})
	d.Body = body
	g.file.Funcs = append(g.file.Funcs, d)
}

// digest folds every global into one printed float so all behavior is
// observable.
func (g *generator) digest() []ast.Stmt {
	stmts := []ast.Stmt{declStmt("digest", ast.Float, floatLit(0))}
	acc := func(e ast.Expr, float bool) ast.Expr {
		if !float {
			e = call("float", bin(token.REM, e, intLit(1000)))
		}
		return bin(token.ADD, id("digest"), e)
	}
	for _, v := range g.globals {
		switch len(v.dims) {
		case 0:
			stmts = append(stmts, assign(id("digest"), token.ASSIGN, acc(id(v.name), v.float)))
		case 1:
			lv := g.fresh("d")
			stmts = append(stmts, g.countedFor(lv, v.dims[0], &ast.Block{Stmts: []ast.Stmt{
				assign(id("digest"), token.ASSIGN, acc(index1(v.name, id(lv)), v.float)),
			}}))
		case 2:
			li, lj := g.fresh("d"), g.fresh("d")
			inner := g.countedFor(lj, v.dims[1], &ast.Block{Stmts: []ast.Stmt{
				assign(id("digest"), token.ASSIGN, acc(index2(v.name, id(li), id(lj)), v.float)),
			}})
			stmts = append(stmts, g.countedFor(li, v.dims[0], &ast.Block{Stmts: []ast.Stmt{inner}}))
		}
	}
	return append(stmts, &ast.ExprStmt{X: call("print", &ast.StringLit{Value: "digest"}, id("digest"))})
}

// countedFor builds `for (int lv = 0; lv < n; lv++) body`.
func (g *generator) countedFor(lv string, n int64, body *ast.Block) ast.Stmt {
	return &ast.ForStmt{
		Init: declStmt(lv, ast.Int, intLit(0)),
		Cond: bin(token.LSS, id(lv), intLit(n)),
		Post: &ast.IncDecStmt{LHS: id(lv), Op: token.INC},
		Body: body,
	}
}

// ---- statements ----

func (g *generator) block(sc *scope, budget int) *ast.Block {
	b := &ast.Block{}
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	base := len(sc.locals)
	for s := 0; s < n; s++ {
		b.Stmts = append(b.Stmts, g.stmt(sc, budget))
	}
	sc.locals = sc.locals[:base] // leave scope
	return b
}

func (g *generator) stmt(sc *scope, budget int) ast.Stmt {
	type gen func(*scope, int) ast.Stmt
	choices := []gen{g.declS, g.assignS, g.assignS, g.arrayS, g.arrayS, g.incDecS}
	if budget > 0 {
		choices = append(choices, g.ifS, g.forS, g.forS, g.whileS, g.reductionS)
	}
	if sc.loopDepth > 0 {
		choices = append(choices, g.breakContinueS)
	}
	if sc.retFloat >= 0 && g.rng.Intn(4) == 0 {
		choices = append(choices, g.earlyReturnS)
	}
	if g.callableCount(sc) > 0 {
		choices = append(choices, g.callS)
	}
	return choices[g.rng.Intn(len(choices))](sc, budget)
}

// callableBase is the lowest helper index the current function may call:
// helpers call only strictly higher indexes (acyclicity — in particular no
// self-recursion, which would not terminate), while main may call every
// helper.
func (g *generator) callableBase(sc *scope) int {
	if sc.fnIndex >= len(g.funcs) {
		return 0
	}
	return sc.fnIndex + 1
}

func (g *generator) callableCount(sc *scope) int { return len(g.funcs) - g.callableBase(sc) }

func (g *generator) declS(sc *scope, budget int) ast.Stmt {
	g.charge(sc, 8)
	v := lvar{name: g.fresh("v"), float: g.rng.Intn(2) == 0}
	s := declStmt(v.name, elemOf(v.float), g.expr(sc, v.float, g.cfg.MaxExpr))
	sc.locals = append(sc.locals, v)
	return s
}

// assignable returns a random assignable scalar (non-loop local or scalar
// global).
func (g *generator) assignable(sc *scope) (string, bool, bool) {
	type cand struct {
		name  string
		float bool
	}
	var cands []cand
	for _, l := range sc.locals {
		if !l.loopVar && !l.arr {
			cands = append(cands, cand{l.name, l.float})
		}
	}
	for _, v := range g.globals {
		if v.dims == nil {
			cands = append(cands, cand{v.name, v.float})
		}
	}
	if len(cands) == 0 {
		return "", false, false
	}
	c := cands[g.rng.Intn(len(cands))]
	return c.name, c.float, true
}

func (g *generator) assignS(sc *scope, budget int) ast.Stmt {
	name, isFloat, ok := g.assignable(sc)
	if !ok {
		return g.declS(sc, budget)
	}
	g.charge(sc, 8)
	switch g.rng.Intn(4) {
	case 0:
		return assign(id(name), token.ADDASSIGN, g.expr(sc, isFloat, g.cfg.MaxExpr-1))
	case 1:
		// Small factors keep *= from exploding.
		if isFloat {
			return assign(id(name), token.MULASSIGN, floatLit([]float64{0.5, 1.25, 0.75}[g.rng.Intn(3)]))
		}
		return assign(id(name), token.MULASSIGN, intLit(int64(1+g.rng.Intn(3))))
	default:
		return assign(id(name), token.ASSIGN, g.expr(sc, isFloat, g.cfg.MaxExpr))
	}
}

func (g *generator) incDecS(sc *scope, budget int) ast.Stmt {
	// ++/-- needs an int scalar lvalue that is not a loop counter.
	var cands []string
	for _, l := range sc.locals {
		if !l.loopVar && !l.arr && !l.float {
			cands = append(cands, l.name)
		}
	}
	for _, v := range g.globals {
		if v.dims == nil && !v.float {
			cands = append(cands, v.name)
		}
	}
	if len(cands) == 0 {
		return g.assignS(sc, budget)
	}
	g.charge(sc, 4)
	g.mark(IncDec)
	op := token.INC
	if g.rng.Intn(2) == 0 {
		op = token.DEC
	}
	return &ast.IncDecStmt{LHS: id(cands[g.rng.Intn(len(cands))]), Op: op}
}

func (g *generator) arrayS(sc *scope, budget int) ast.Stmt {
	g.charge(sc, 10)
	arrs := g.arrayGlobals()
	v := arrs[g.rng.Intn(len(arrs))]
	var lhs ast.Expr
	if len(v.dims) == 2 {
		g.mark(Array2D)
		lhs = index2(v.name, g.subscript(sc, v.dims[0]), g.subscript(sc, v.dims[1]))
	} else {
		lhs = index1(v.name, g.subscript(sc, v.dims[0]))
	}
	g.mark(ArrayWrite)
	if g.rng.Intn(3) == 0 {
		return assign(lhs, token.ADDASSIGN, g.expr(sc, v.float, g.cfg.MaxExpr-1))
	}
	return assign(lhs, token.ASSIGN, g.expr(sc, v.float, g.cfg.MaxExpr))
}

func (g *generator) arrayGlobals() []gvar {
	var out []gvar
	for _, v := range g.globals {
		if v.dims != nil {
			out = append(out, v)
		}
	}
	return out
}

// subscript builds an in-bounds non-negative index expression.
func (g *generator) subscript(sc *scope, dim int64) ast.Expr {
	var loops []string
	for _, l := range sc.locals {
		if l.loopVar {
			loops = append(loops, l.name)
		}
	}
	if len(loops) > 0 && g.rng.Intn(4) != 0 {
		lv := loops[g.rng.Intn(len(loops))]
		if g.rng.Intn(2) == 0 {
			return bin(token.REM, id(lv), intLit(dim))
		}
		return bin(token.REM, bin(token.ADD, id(lv), intLit(int64(g.rng.Intn(5)))), intLit(dim))
	}
	return intLit(int64(g.rng.Int63n(dim)))
}

func (g *generator) ifS(sc *scope, budget int) ast.Stmt {
	g.charge(sc, 6)
	s := &ast.IfStmt{Cond: g.cond(sc), Then: g.block(sc, budget-1)}
	if g.rng.Intn(2) == 0 {
		g.mark(IfElse)
		s.Else = g.block(sc, budget-1)
	} else {
		g.mark(If)
	}
	return s
}

func (g *generator) forS(sc *scope, budget int) ast.Stmt {
	g.mark(ForLoop)
	if sc.loopDepth > 0 {
		g.mark(NestedLoop)
	}
	lv := g.fresh("i")
	iters := int64(2 + g.rng.Intn(g.cfg.LoopIters-1))
	sc.locals = append(sc.locals, lvar{name: lv, loopVar: true})
	sc.loopDepth++
	sc.mult *= iters
	g.charge(sc, 4) // per-iteration loop overhead
	body := g.block(sc, budget-1)
	sc.mult /= iters
	sc.loopDepth--
	sc.locals = sc.locals[:len(sc.locals)-1]
	return g.countedFor(lv, iters, body)
}

// whileS emits a while loop bounded by an explicit counter. The counter
// increments first so a generated `continue` cannot skip it.
func (g *generator) whileS(sc *scope, budget int) ast.Stmt {
	g.mark(WhileLoop)
	if sc.loopDepth > 0 {
		g.mark(NestedLoop)
	}
	wv := g.fresh("w")
	iters := int64(2 + g.rng.Intn(g.cfg.LoopIters-1))
	sc.locals = append(sc.locals, lvar{name: wv, loopVar: true})
	sc.loopDepth++
	sc.mult *= iters
	g.charge(sc, 6) // per-iteration counter + condition overhead
	body := g.block(sc, budget-1)
	sc.mult /= iters
	sc.loopDepth--
	sc.locals = sc.locals[:len(sc.locals)-1]
	body.Stmts = append([]ast.Stmt{
		assign(id(wv), token.ASSIGN, bin(token.ADD, id(wv), intLit(1))),
	}, body.Stmts...)
	return &ast.Block{Stmts: []ast.Stmt{
		declStmt(wv, ast.Int, intLit(0)),
		&ast.WhileStmt{Cond: bin(token.LSS, id(wv), intLit(iters)), Body: body},
	}}
}

// reductionS emits the paper's key pattern: a counted loop accumulating
// into one scalar (acc = acc + e or acc += e), which the static analysis
// should recognize as a breakable reduction dependence.
func (g *generator) reductionS(sc *scope, budget int) ast.Stmt {
	acc, isFloat, ok := g.assignable(sc)
	if !ok {
		return g.forS(sc, budget)
	}
	g.mark(Reduction)
	g.mark(ForLoop)
	if sc.loopDepth > 0 {
		g.mark(NestedLoop)
	}
	lv := g.fresh("i")
	iters := int64(3 + g.rng.Intn(g.cfg.LoopIters))
	sc.locals = append(sc.locals, lvar{name: lv, loopVar: true})
	sc.loopDepth++
	sc.mult *= iters
	g.charge(sc, 10) // accumulate + loop overhead per iteration
	e := g.expr(sc, isFloat, g.cfg.MaxExpr-1)
	sc.mult /= iters
	sc.loopDepth--
	sc.locals = sc.locals[:len(sc.locals)-1]
	var red ast.Stmt
	if g.rng.Intn(2) == 0 {
		red = assign(id(acc), token.ADDASSIGN, e)
	} else {
		red = assign(id(acc), token.ASSIGN, bin(token.ADD, id(acc), e))
	}
	return g.countedFor(lv, iters, &ast.Block{Stmts: []ast.Stmt{red}})
}

func (g *generator) breakContinueS(sc *scope, budget int) ast.Stmt {
	g.charge(sc, 4)
	var s ast.Stmt
	if g.rng.Intn(2) == 0 {
		g.mark(Break)
		s = &ast.BreakStmt{}
	} else {
		g.mark(Continue)
		s = &ast.ContinueStmt{}
	}
	return &ast.IfStmt{Cond: g.cond0(sc), Then: &ast.Block{Stmts: []ast.Stmt{s}}}
}

// earlyReturnS emits a guarded return from a helper function.
func (g *generator) earlyReturnS(sc *scope, budget int) ast.Stmt {
	g.charge(sc, 6)
	g.mark(EarlyReturn)
	ret := &ast.ReturnStmt{Result: g.expr(sc, sc.retFloat == 1, g.cfg.MaxExpr-1)}
	return &ast.IfStmt{Cond: g.cond0(sc), Then: &ast.Block{Stmts: []ast.Stmt{ret}}}
}

func (g *generator) callS(sc *scope, budget int) ast.Stmt {
	// A call site is generated only when the callee's estimated cost,
	// multiplied by the enclosing loops, fits the per-function work budget
	// — the bound that keeps deeply nested call chains from exploding the
	// program's runtime now that helpers genuinely execute.
	base := g.callableBase(sc)
	var fit []int
	for j := base; j < len(g.funcs); j++ {
		if g.curCost+sc.mult*(g.funcs[j].cost+8) <= fnWorkBudget {
			fit = append(fit, j)
		}
	}
	if len(fit) == 0 {
		return g.assignS(sc, budget)
	}
	callee := g.funcs[fit[g.rng.Intn(len(fit))]]
	g.charge(sc, callee.cost+8)
	g.mark(Call)
	var args []ast.Expr
	for _, p := range callee.params {
		if p.arr {
			args = append(args, id(g.arrayArg(p.float)))
			continue
		}
		args = append(args, g.expr(sc, p.float, g.cfg.MaxExpr-1))
	}
	c := call(callee.name, args...)
	if name, isFloat, ok := g.assignable(sc); ok && g.rng.Intn(2) == 0 {
		if isFloat == callee.retFloat || (isFloat && !callee.retFloat) {
			return assign(id(name), token.ASSIGN, c)
		}
		g.mark(Conversion)
		return assign(id(name), token.ASSIGN, call("int", c))
	}
	// Discard the result through a declaration (Kr expression statements
	// must be void calls).
	v := lvar{name: g.fresh("c"), float: callee.retFloat}
	sc.locals = append(sc.locals, v)
	return declStmt(v.name, elemOf(v.float), c)
}

// arrayArg names a global 1-D array of the requested element type (the
// guaranteed globals ensure one exists).
func (g *generator) arrayArg(isFloat bool) string {
	for _, v := range g.globals {
		if len(v.dims) == 1 && v.float == isFloat {
			return v.name
		}
	}
	return "" // unreachable
}

// ---- expressions ----

// cond builds a bool expression.
func (g *generator) cond(sc *scope) ast.Expr {
	ops := []token.Kind{token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ}
	isFloat := g.rng.Intn(2) == 0
	c := bin(ops[g.rng.Intn(len(ops))],
		g.expr(sc, isFloat, g.cfg.MaxExpr-1), g.expr(sc, isFloat, g.cfg.MaxExpr-1))
	if g.rng.Intn(4) == 0 {
		g.mark(BoolOp)
		op := token.LAND
		if g.rng.Intn(2) == 0 {
			op = token.LOR
		}
		c = bin(op, c, g.cond0(sc))
	}
	if g.rng.Intn(6) == 0 {
		g.mark(Not)
		c = &ast.UnaryExpr{Op: token.NOT, X: c}
	}
	return c
}

func (g *generator) cond0(sc *scope) ast.Expr {
	return bin(token.LSS, g.expr(sc, false, 1), g.expr(sc, false, 1))
}

// expr builds a well-typed numeric expression.
func (g *generator) expr(sc *scope, isFloat bool, depth int) ast.Expr {
	if depth <= 0 {
		return g.leaf(sc, isFloat)
	}
	switch g.rng.Intn(8) {
	case 0, 1:
		return g.leaf(sc, isFloat)
	case 2:
		if isFloat {
			g.mark(FloatArith)
		} else {
			g.mark(IntArith)
		}
		op := []token.Kind{token.ADD, token.SUB, token.MUL}[g.rng.Intn(3)]
		return bin(op, g.expr(sc, isFloat, depth-1), g.expr(sc, isFloat, depth-1))
	case 3:
		if isFloat {
			g.mark(FloatArith)
			// Division by a safely nonzero value.
			return bin(token.QUO, g.expr(sc, true, depth-1),
				bin(token.ADD, call("fabs", g.expr(sc, true, depth-1)), floatLit(1)))
		}
		g.mark(IntDivMod)
		return bin(token.QUO, g.expr(sc, false, depth-1), intLit(int64(1+g.rng.Intn(7))))
	case 4:
		g.mark(MathBuiltin)
		if isFloat {
			switch g.rng.Intn(5) {
			case 0:
				return call("sqrt", call("fabs", g.expr(sc, true, depth-1)))
			case 1:
				return call("fabs", g.expr(sc, true, depth-1))
			case 2:
				return call("floor", g.expr(sc, true, depth-1))
			case 3:
				return call("sin", g.expr(sc, true, depth-1))
			default:
				return call("cos", g.expr(sc, true, depth-1))
			}
		}
		return call("abs", g.expr(sc, false, depth-1))
	case 5:
		g.mark(Conversion)
		if isFloat {
			return call("float", g.expr(sc, false, depth-1))
		}
		g.mark(IntDivMod)
		return bin(token.REM, g.expr(sc, false, depth-1), intLit(int64(2+g.rng.Intn(9))))
	case 6:
		g.mark(Neg)
		return &ast.UnaryExpr{Op: token.SUB, X: g.expr(sc, isFloat, depth-1)}
	default:
		g.mark(MinMax)
		name := "min"
		if g.rng.Intn(2) == 0 {
			name = "max"
		}
		return call(name, g.expr(sc, isFloat, depth-1), g.expr(sc, isFloat, depth-1))
	}
}

// leaf yields a variable, array element, or literal of the right type.
func (g *generator) leaf(sc *scope, isFloat bool) ast.Expr {
	var opts []ast.Expr
	for _, l := range sc.locals {
		if l.arr {
			if l.float == isFloat {
				g.mark(ArrayRead)
				opts = append(opts, index1(l.name,
					bin(token.REM, g.intIndex(sc), call("dim", id(l.name), intLit(0)))))
			}
			continue
		}
		if l.float == isFloat || (!isFloat && l.loopVar) {
			opts = append(opts, id(l.name))
		}
	}
	for _, v := range g.globals {
		if v.float != isFloat {
			continue
		}
		switch len(v.dims) {
		case 0:
			opts = append(opts, id(v.name))
		case 1:
			g.mark(ArrayRead)
			opts = append(opts, index1(v.name, g.subscript(sc, v.dims[0])))
		case 2:
			g.mark(ArrayRead)
			g.mark(Array2D)
			opts = append(opts, index2(v.name, g.subscript(sc, v.dims[0]), g.subscript(sc, v.dims[1])))
		}
	}
	if len(opts) > 0 && g.rng.Intn(3) != 0 {
		return opts[g.rng.Intn(len(opts))]
	}
	if isFloat {
		return floatLit(float64(g.rng.Intn(2000)) / 100)
	}
	return intLit(int64(g.rng.Intn(50)))
}

// intIndex returns a non-negative int expression for subscripting.
func (g *generator) intIndex(sc *scope) ast.Expr {
	for _, l := range sc.locals {
		if l.loopVar && g.rng.Intn(2) == 0 {
			return id(l.name)
		}
	}
	return intLit(int64(g.rng.Intn(32)))
}
