package krfuzz

// Front-cache oracle: compiling through the daemon's per-function front
// cache must decide exactly what a cold compile decides.

import (
	"fmt"
	"strings"

	"kremlin"
	"kremlin/internal/frontcache"
)

// FrontView renders what the front half decided for a compiled program:
// the lint diagnostics with their positions, the vet report of every loop
// with its cause and blocker strings, and the bytecode listing of every
// function. Two compiles of one source agree on the front half exactly
// when their views are equal.
func FrontView(p *kremlin.Program) string {
	var sb strings.Builder
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

// checkFrontCache compiles base and then edit through one front cache and
// requires the edit's front view to equal a cold compile's.
func checkFrontCache(name, baseSrc, editSrc string, fail func(string, string, ...interface{}) error) error {
	o := kremlin.CompileOptions{FrontCache: frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes).Scope("")}
	if _, err := kremlin.CompileWith(name, baseSrc, o); err != nil {
		return fail("front-base-compile", "%v", err)
	}
	warm, err := kremlin.CompileWith(name, editSrc, o)
	if err != nil {
		return fail("front-edit-compile", "%v", err)
	}
	cold, err := kremlin.Compile(name, editSrc)
	if err != nil {
		return fail("front-cold-compile", "%v", err)
	}
	if w, c := FrontView(warm), FrontView(cold); w != c {
		return fail("front-cache", "front cache diverged from a cold compile\n--- cold ---\n%s--- front cache ---\n%s", c, w)
	}
	return nil
}
