package krfuzz

// Front-cache oracle: compiling through the daemon's per-function front
// cache must decide exactly what a cold compile decides.

import (
	"fmt"
	"strings"

	"kremlin"
	"kremlin/internal/ast"
	"kremlin/internal/frontcache"
	"kremlin/internal/parser"
	"kremlin/internal/source"
)

// FrontView renders what the front half decided for a compiled program:
// the IR text with every instruction's position and every block's loop,
// the lint diagnostics with their positions, the vet report of every loop
// with its cause and blocker strings, and the bytecode listing of every
// function. Two compiles of one source agree on the front half exactly
// when their views are equal.
func FrontView(p *kremlin.Program) string {
	var sb strings.Builder
	sb.WriteString(p.Module.String())
	for _, f := range p.Module.Funcs {
		fmt.Fprintf(&sb, "pos %s %d-%d\n", f.Name, f.Pos, f.EndPos)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "  %s loop=%d:", b, b.LoopID)
			for _, ins := range b.Instrs {
				fmt.Fprintf(&sb, " %d", ins.Pos)
			}
			sb.WriteString("\n")
		}
	}
	for _, f := range p.Lint() {
		fmt.Fprintf(&sb, "lint %s %s\n", f.Fn, f)
	}
	for _, rep := range p.Vet.Loops {
		fmt.Fprintf(&sb, "vet %s %s\n", rep.Region.Label(), rep.Verdict)
		for _, c := range rep.Causes {
			fmt.Fprintf(&sb, "  cause %s\n", c)
		}
		for _, c := range rep.Blockers {
			fmt.Fprintf(&sb, "  blocker %s\n", c)
		}
	}
	for _, fc := range p.Bytecode().Funcs() {
		fmt.Fprintf(&sb, "func %s regs=%d consts=%v\n", fc.F.Name, fc.NumRegs, fc.Consts)
		for pc, ins := range fc.Code {
			fmt.Fprintf(&sb, "  %d %v %d %d %d %d @%d\n", pc, ins.Op, ins.Dst, ins.A, ins.B, ins.C, ins.Pos)
		}
	}
	return sb.String()
}

// checkFrontCache compiles base and then an edit through one front cache
// and requires the edit's front view to equal a cold compile's. It checks
// the given edit and four derived from base: a comment lengthening the
// first function, whose stored body alone is lowered again while every
// later function's moves to its new offset, and three that change what
// every function can see, a callee's parameter count, a parameter's type
// and a new first global, after which every function is lowered again.
func checkFrontCache(name, baseSrc, editSrc string, fail func(string, string, ...interface{}) error) error {
	if err := checkFrontEdit(name, baseSrc, editSrc, "", -1, fail); err != nil {
		return err
	}
	file := source.NewFile(name, baseSrc)
	errs := &source.ErrorList{}
	tree := parser.Parse(file, errs)
	if errs.Err() != nil {
		return fail("front-base-parse", "%v", errs.Err())
	}
	if i := strings.Index(baseSrc, "{\n"); i >= 0 {
		lengthened := baseSrc[:i+2] + "\t// lengthened\n" + baseSrc[i+2:]
		if err := checkFrontEdit(name, baseSrc, lengthened, "lengthen", 1, fail); err != nil {
			return err
		}
	}
	all := len(tree.Funcs)
	if callee := signatureTarget(tree); callee != nil {
		// Give the callee a trailing parameter and pass 0 at every call.
		callee.Params = append(callee.Params, &ast.ParamDecl{Name: "krfuzzPad", Elem: ast.Int})
		for _, fd := range tree.Funcs {
			walkStmts(fd.Body, func(e ast.Expr) {
				if c, ok := e.(*ast.CallExpr); ok && c.Name == callee.Name {
					c.Args = append(c.Args, &ast.IntLit{Value: 0, Text: "0"})
				}
			})
		}
		if err := checkFrontEdit(name, baseSrc, ast.Print(tree), "signature", all, fail); err != nil {
			return err
		}
		tree = parser.Parse(file, errs)
	}
	if retyped := retypeParam(name, tree); retyped != "" {
		if err := checkFrontEdit(name, baseSrc, retyped, "param-type", all, fail); err != nil {
			return err
		}
	}
	tree.Globals = append([]*ast.VarDecl{{Name: "krfuzzPad", Elem: ast.Int}}, tree.Globals...)
	return checkFrontEdit(name, baseSrc, ast.Print(tree), "global", all, fail)
}

// signatureTarget picks the function whose signature the signature edit
// changes: the first helper that is called, else the first helper.
func signatureTarget(tree *ast.File) *ast.FuncDecl {
	called := map[string]bool{}
	for _, fd := range tree.Funcs {
		walkStmts(fd.Body, func(e ast.Expr) {
			if c, ok := e.(*ast.CallExpr); ok {
				called[c.Name] = true
			}
		})
	}
	var first *ast.FuncDecl
	for _, fd := range tree.Funcs {
		if fd.Name == "main" {
			continue
		}
		if called[fd.Name] {
			return fd
		}
		if first == nil {
			first = fd
		}
	}
	return first
}

// retypeParam renders tree with one scalar int parameter of a helper
// retyped to float, the first such retyping that still compiles. Every
// call site keeps its text, since an int argument widens to float, so
// only the declarations the callers see tell them apart. It returns ""
// when no retyping compiles, and leaves tree as it found it.
func retypeParam(name string, tree *ast.File) string {
	for _, fd := range tree.Funcs {
		if fd.Name == "main" {
			continue
		}
		for _, p := range fd.Params {
			if p.Elem != ast.Int || p.NumDims != 0 {
				continue
			}
			p.Elem = ast.Float
			src := ast.Print(tree)
			p.Elem = ast.Int
			if _, err := kremlin.Compile(name, src); err == nil {
				return src
			}
		}
	}
	return ""
}

// checkFrontEdit compiles base and then edit through a fresh front cache,
// compares the edit's front view with a cold compile's and, when lowered
// is not negative, requires the edit compile to lower exactly that many
// functions.
func checkFrontEdit(name, baseSrc, editSrc, label string, lowered int, fail func(string, string, ...interface{}) error) error {
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("")}
	if _, err := kremlin.CompileWith(name, baseSrc, o); err != nil {
		return fail("front-base-compile", "%v", err)
	}
	before := fc.Stats().Kinds[frontcache.KindIR].Misses
	warm, err := kremlin.CompileWith(name, editSrc, o)
	if err != nil {
		return fail("front-edit-compile", "[%s] %v", label, err)
	}
	cold, err := kremlin.Compile(name, editSrc)
	if err != nil {
		return fail("front-cold-compile", "[%s] %v", label, err)
	}
	if w, c := FrontView(warm), FrontView(cold); w != c {
		return fail("front-cache", "[%s] front cache diverged from a cold compile\n--- edit ---\n%s--- cold ---\n%s--- front cache ---\n%s", label, editSrc, c, w)
	}
	if n := fc.Stats().Kinds[frontcache.KindIR].Misses - before; lowered >= 0 && n != uint64(lowered) {
		return fail("front-cache-lowered", "[%s] the edit lowered %d functions, want %d\n--- edit ---\n%s", label, n, lowered, editSrc)
	}
	return nil
}
