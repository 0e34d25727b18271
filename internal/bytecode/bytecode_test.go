package bytecode

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"kremlin/internal/absint"
	"kremlin/internal/analysis"
	"kremlin/internal/instrument"
	"kremlin/internal/interp"
	"kremlin/internal/ir"
	"kremlin/internal/irbuild"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
	"kremlin/internal/parser"
	"kremlin/internal/regions"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// compiled carries one Kr program through both engines: the IR module for
// the tree-walking interpreter and the lowered bytecode for the VM.
type compiled struct {
	mod   *ir.Module
	regs  *regions.Program
	instr *instrument.Module
	prog  *Program
}

// compileKr runs the same front-end pipeline as the root package (parse →
// typecheck → irbuild → analysis → regions → instrument) and lowers the
// result to bytecode. The bytecode must pass structural verification.
func compileKr(t testing.TB, src string) *compiled {
	t.Helper()
	file := source.NewFile("test.kr", src)
	errs := &source.ErrorList{}
	tree := parser.Parse(file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := types.Check(tree, file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	mod := irbuild.Build(tree, info, file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	analysis.Run(mod)
	regs := regions.Analyze(mod, file)
	instr := instrument.Build(regs)
	p := Compile(mod, regs, instr, absint.Analyze(mod))
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return &compiled{mod: mod, regs: regs, instr: instr, prog: p}
}

func (c *compiled) config(mode interp.Mode, out io.Writer) interp.Config {
	return interp.Config{Mode: mode, Out: out, Prog: c.regs, Instr: c.instr}
}

var testPrograms = map[string]string{
	"arith": `
void main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		s = s + i * 3 % 7 - i / 5;
	}
	print(s);
}`,
	"arrays": `
int a[64];
float b[64];
void main() {
	for (int i = 0; i < 64; i++) {
		a[i] = i * i;
		b[i] = 1.5;
	}
	int s = 0;
	for (int i = 1; i < 64; i++) {
		s = s + a[i] - a[i-1];
		b[i] = b[i-1] * 0.5 + 1.0;
	}
	print(s);
	print(b[63]);
}`,
	"branches": `
void main() {
	int hits = 0;
	for (int i = 0; i <= 63; i++) {
		if (i == 0) { hits = hits + 1; }
		if (i == 63) { hits = hits + 1; }
		if (i < 32) { hits = hits + 2; } else { hits = hits + 3; }
		if (i >= 62) { hits = hits + 1; }
	}
	print(hits);
}`,
	"empty-blocks": `
void main() {
	int s = 7;
	if (s > 0) {
	}
	if (s < 0) {
	} else {
		s = s + 1;
	}
	for (int i = 0; i < 4; i++) {
	}
	print(s);
}`,
	"calls": `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
void main() {
	print(fib(12));
	int local[8];
	for (int i = 0; i < 8; i++) { local[i] = i; }
	print(local[7]);
}`,
	"floats": `
float v[32];
void main() {
	srand(11);
	for (int i = 0; i < 32; i++) {
		v[i] = frand() + 0.25;
	}
	float s = 0.0;
	for (int i = 0; i < 32; i++) {
		s = s + sqrt(v[i]) * min(v[i], 0.5);
	}
	print(s);
	print(rand() % 1000);
}`,
	"matrix": `
int m[8][8];
void main() {
	for (int i = 0; i < 8; i++) {
		for (int j = 0; j < 8; j++) {
			m[i][j] = i * 8 + j;
		}
	}
	int d = 0;
	for (int i = 0; i < 8; i++) { d = d + m[i][i]; }
	print(d);
}`,
}

var allModes = []interp.Mode{interp.Plain, interp.Gprof, interp.HCPA, interp.Probe}

// TestEngineEquivalence runs every test program under all four modes on
// both engines and demands identical output, counters, gprof entries,
// profiles, and depth histograms.
func TestEngineEquivalence(t *testing.T) {
	for name, src := range testPrograms {
		t.Run(name, func(t *testing.T) {
			c := compileKr(t, src)
			for _, mode := range allModes {
				var vout, tout strings.Builder
				vres, verr := Run(c.prog, c.config(mode, &vout))
				tres, terr := interp.Run(c.mod, c.config(mode, &tout))
				if verr != nil || terr != nil {
					t.Fatalf("mode %v: vm err %v, tree err %v", mode, verr, terr)
				}
				if vout.String() != tout.String() {
					t.Errorf("mode %v: output diverged\n--- tree ---\n%s--- vm ---\n%s", mode, tout.String(), vout.String())
				}
				if vres.Work != tres.Work || vres.Steps != tres.Steps {
					t.Errorf("mode %v: vm work/steps %d/%d, tree %d/%d", mode, vres.Work, vres.Steps, tres.Work, tres.Steps)
				}
				if !reflect.DeepEqual(vres.Gprof, tres.Gprof) {
					t.Errorf("mode %v: gprof entries diverged", mode)
				}
				if !reflect.DeepEqual(vres.DepthWork, tres.DepthWork) || vres.MaxRegionDepth != tres.MaxRegionDepth {
					t.Errorf("mode %v: depth histograms diverged", mode)
				}
				if mode == interp.HCPA {
					if vres.ShadowPages != tres.ShadowPages || vres.ShadowWrites != tres.ShadowWrites {
						t.Errorf("HCPA: vm pages/writes %d/%d, tree %d/%d",
							vres.ShadowPages, vres.ShadowWrites, tres.ShadowPages, tres.ShadowWrites)
					}
					if vres.Profile.TotalWork() != tres.Profile.TotalWork() {
						t.Errorf("HCPA: vm profile TotalWork %d, tree %d",
							vres.Profile.TotalWork(), tres.Profile.TotalWork())
					}
				}
			}
		})
	}
}

// countOps tallies every opcode across a program's bytecode.
func countOps(p *Program) map[opcode]int {
	n := make(map[opcode]int)
	for _, fc := range p.Funcs {
		for _, ins := range fc.Code {
			n[ins.Op]++
		}
	}
	return n
}

// TestSuperinstructions checks that the compiler actually fuses the hot
// pairs it advertises: compare-feeding-branch and 1-D indexed load/store.
func TestSuperinstructions(t *testing.T) {
	// Fused forms count whether or not absint proved the access in
	// bounds (checked and unchecked variants are the same fusion).
	c := compileKr(t, testPrograms["arrays"])
	ops := countOps(c.prog)
	if ops[opBrCmpI] == 0 {
		t.Errorf("no fused int compare-branch in loop-heavy program; ops: %v", ops)
	}
	if ops[opLdIdxI]+ops[opLdIdxF]+ops[opLdIdxIU]+ops[opLdIdxFU] == 0 {
		t.Errorf("no fused indexed load; ops: %v", ops)
	}
	if ops[opStIdx]+ops[opStIdxU] == 0 {
		t.Errorf("no fused indexed store; ops: %v", ops)
	}

	// A 2-D access chain collapses into one dispatch per load/store.
	m := compileKr(t, testPrograms["matrix"])
	mops := countOps(m.prog)
	if mops[opLdIdx2I]+mops[opLdIdx2IU] == 0 {
		t.Errorf("no fused 2-D indexed load in matrix program; ops: %v", mops)
	}
	if mops[opStIdx2]+mops[opStIdx2U] == 0 {
		t.Errorf("no fused 2-D indexed store in matrix program; ops: %v", mops)
	}
	if mops[opView]+mops[opViewU] != 0 {
		t.Errorf("matrix program retains %d views after 2-D fusion; ops: %v", mops[opView]+mops[opViewU], mops)
	}

	// A rank-3 chain collapses into the N-ary fused forms.
	cube := compileKr(t, `
int c[4][4][4];
void main() {
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			for (int k = 0; k < 4; k++) { c[i][j][k] = i + j + k; }
		}
	}
	print(c[3][2][1]);
}`)
	cops := countOps(cube.prog)
	if cops[opStIdxN]+cops[opStIdxNU] == 0 || cops[opLdIdxNI]+cops[opLdIdxNIU] == 0 {
		t.Errorf("rank-3 program did not fuse its full chains; ops: %v", cops)
	}
	if cops[opView]+cops[opViewU] != 0 {
		t.Errorf("rank-3 program retains %d views after N-ary fusion; ops: %v", cops[opView]+cops[opViewU], cops)
	}

	// A compound assignment reuses one cell view for both the load and the
	// store — multi-use views must NOT fuse, and must survive as opView.
	comp := compileKr(t, `
int m[8][8];
void main() {
	for (int i = 0; i < 8; i++) {
		for (int j = 0; j < 8; j++) { m[i][j] += i; }
	}
	print(m[7][7]);
}`)
	pops := countOps(comp.prog)
	if pops[opView]+pops[opViewU] == 0 {
		t.Errorf("compound assignment lost its shared cell view; ops: %v", pops)
	}
}

// TestBatchTemplates checks that every block off the NeedsSlow path gets
// an HCPA template (the batched StepBlock path) unless it calls a rand or
// print builtin — loads, stores and returns included — while
// call-containing blocks do not.
func TestBatchTemplates(t *testing.T) {
	for name, src := range testPrograms {
		c := compileKr(t, src)
		for _, fc := range c.prog.Funcs {
			for bi, b := range fc.Blocks {
				if b.NeedsSlow {
					continue
				}
				chained := false
				for _, ins := range b.IR.Instrs {
					if ins.Op == ir.OpBuiltin && knownBuiltins[ins.Builtin] {
						chained = true
					}
				}
				if chained && b.Tpl != nil {
					t.Errorf("%s: func %s block %d: rand/print block carries a template", name, fc.F.Name, bi)
				}
				if !chained && b.Tpl == nil {
					t.Errorf("%s: func %s block %d: batchable block has no template", name, fc.F.Name, bi)
				}
			}
		}
	}
	c := compileKr(t, testPrograms["arrays"])
	var memTpl int
	for _, fc := range c.prog.Funcs {
		for _, b := range fc.Blocks {
			if b.Tpl == nil {
				continue
			}
			for _, ti := range b.Tpl.Ins {
				if ti.Kind != kremlib.TplPlain {
					memTpl++
				}
			}
		}
	}
	if memTpl == 0 {
		t.Error("no template in the arrays program batches a load, store or return")
	}

	calls := compileKr(t, testPrograms["calls"])
	for _, fc := range calls.prog.Funcs {
		for _, b := range fc.Blocks {
			if !b.NeedsSlow {
				continue
			}
			if b.Tpl != nil {
				t.Errorf("func %s: NeedsSlow block has a template", fc.F.Name)
			}
			if b.Exact {
				if b.Start < 0 || b.End < b.Start {
					t.Errorf("func %s: exact block without bytecode [%d,%d)", fc.F.Name, b.Start, b.End)
				}
			} else if b.Start != -1 || b.End != -1 {
				t.Errorf("func %s: non-exact NeedsSlow block has bytecode [%d,%d)", fc.F.Name, b.Start, b.End)
			}
		}
	}
}

// TestBudgetPrefix sweeps the instruction budget across both engines,
// including both sides of the 2^14 liveness-poll boundary: the stop must
// be an exact prefix — same error, same step counter — regardless of
// engine.
func TestBudgetPrefix(t *testing.T) {
	c := compileKr(t, testPrograms["arith"])
	budgets := []uint64{1, 2, 5, 17, 100, 999,
		limits.LiveCheckInterval - 1, limits.LiveCheckInterval, limits.LiveCheckInterval + 1}
	for _, mode := range []interp.Mode{interp.Plain, interp.HCPA} {
		for _, b := range budgets {
			vcfg := c.config(mode, io.Discard)
			vcfg.MaxSteps = b
			tcfg := c.config(mode, io.Discard)
			tcfg.MaxSteps = b
			vres, verr := Run(c.prog, vcfg)
			tres, terr := interp.Run(c.mod, tcfg)
			if (verr == nil) != (terr == nil) {
				t.Fatalf("mode %v budget %d: vm err %v, tree err %v", mode, b, verr, terr)
			}
			if verr != nil {
				if !errors.Is(verr, limits.ErrBudgetExceeded) || !errors.Is(terr, limits.ErrBudgetExceeded) {
					t.Fatalf("mode %v budget %d: wrong error kind: vm %v, tree %v", mode, b, verr, terr)
				}
				if verr.Error() != terr.Error() {
					t.Errorf("mode %v budget %d: error text diverged:\nvm:   %v\ntree: %v", mode, b, verr, terr)
				}
				if vres.Steps != tres.Steps {
					t.Errorf("mode %v budget %d: partial steps diverged: vm %d, tree %d", mode, b, vres.Steps, tres.Steps)
				}
			}
		}
	}
}

// TestHeapCapPrefix stops both engines on the simulated-heap cap and
// demands identical errors and step counters.
func TestHeapCapPrefix(t *testing.T) {
	src := `
void grow(int n) {
	float big[4096];
	big[0] = n;
	if (n > 0) { grow(n - 1); }
}
void main() {
	grow(64);
	print(1);
}`
	c := compileKr(t, src)
	for _, cap := range []uint64{4096, 8192, 100_000} {
		vcfg := c.config(interp.Plain, io.Discard)
		vcfg.MaxHeapWords = cap
		tcfg := c.config(interp.Plain, io.Discard)
		tcfg.MaxHeapWords = cap
		vres, verr := Run(c.prog, vcfg)
		tres, terr := interp.Run(c.mod, tcfg)
		if (verr == nil) != (terr == nil) {
			t.Fatalf("cap %d: vm err %v, tree err %v", cap, verr, terr)
		}
		if verr == nil {
			t.Fatalf("cap %d: expected heap-cap stop, both engines ran clean", cap)
		}
		if !errors.Is(verr, limits.ErrMemCap) || !errors.Is(terr, limits.ErrMemCap) {
			t.Fatalf("cap %d: wrong error kind: vm %v, tree %v", cap, verr, terr)
		}
		if verr.Error() != terr.Error() {
			t.Errorf("cap %d: error text diverged:\nvm:   %v\ntree: %v", cap, verr, terr)
		}
		if vres.Steps != tres.Steps {
			t.Errorf("cap %d: partial steps diverged: vm %d, tree %d", cap, vres.Steps, tres.Steps)
		}
	}
}

// TestRuntimeErrorEquivalence checks that runtime faults (division by
// zero, out-of-range subscripts) carry the same message through both
// engines.
func TestRuntimeErrorEquivalence(t *testing.T) {
	for name, src := range map[string]string{
		"div-zero": `
void main() {
	int z = 0;
	for (int i = 0; i < 10; i++) { z = z + i; }
	print(100 / (z - 45));
}`,
		"oob": `
int a[8];
void main() {
	for (int i = 0; i <= 8; i++) { a[i] = i; }
	print(a[0]);
}`,
	} {
		t.Run(name, func(t *testing.T) {
			c := compileKr(t, src)
			_, verr := Run(c.prog, c.config(interp.Plain, io.Discard))
			_, terr := interp.Run(c.mod, c.config(interp.Plain, io.Discard))
			if verr == nil || terr == nil {
				t.Fatalf("expected runtime errors, got vm %v, tree %v", verr, terr)
			}
			if verr.Error() != terr.Error() {
				t.Errorf("error text diverged:\nvm:   %v\ntree: %v", verr, terr)
			}
		})
	}
}

// TestVerifyRejectsCorruption corrupts compiled bytecode in targeted ways
// and checks the verifier catches each one.
func TestVerifyRejectsCorruption(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(fc *FuncCode) bool // returns false if not applicable
	}{
		{"dst-out-of-range", func(fc *FuncCode) bool {
			for i := range fc.Code {
				if fc.Code[i].Op == opAddI || fc.Code[i].Op == opMulI {
					fc.Code[i].Dst = int32(fc.NumRegs) + 5
					return true
				}
			}
			return false
		}},
		{"operand-out-of-range", func(fc *FuncCode) bool {
			for i := range fc.Code {
				if fc.Code[i].Op == opAddI || fc.Code[i].Op == opMulI {
					fc.Code[i].A = -3
					return true
				}
			}
			return false
		}},
		{"edge-target-out-of-range", func(fc *FuncCode) bool {
			if len(fc.Edges) == 0 {
				return false
			}
			fc.Edges[0].Target = int32(len(fc.Blocks) + 9)
			return true
		}},
		{"terminator-mid-block", func(fc *FuncCode) bool {
			for bi := range fc.Blocks {
				b := &fc.Blocks[bi]
				if b.NeedsSlow || b.End-b.Start < 2 {
					continue
				}
				fc.Code[b.Start] = Ins{Op: opJump}
				return true
			}
			return false
		}},
		// A template memory entry with no load/store behind it would make
		// StepBlock read past the block's address buffer.
		{"template-memory-mismatch", func(fc *FuncCode) bool {
			for bi := range fc.Blocks {
				if tpl := fc.Blocks[bi].Tpl; tpl != nil {
					for i := range tpl.Ins {
						if tpl.Ins[i].Kind == kremlib.TplPlain {
							tpl.Ins[i].Kind = kremlib.TplStore
							return true
						}
					}
				}
			}
			return false
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			c := compileKr(t, testPrograms["arith"])
			var applied bool
			for _, fc := range c.prog.Funcs {
				if tc.mut(fc) {
					applied = true
					break
				}
			}
			if !applied {
				t.Skip("corruption not applicable to this program")
			}
			if err := Verify(c.prog); err == nil {
				t.Error("Verify accepted corrupted bytecode")
			}
		})
	}
}

// TestDeterminism: two VM runs of an RNG-using program must agree exactly
// (the VM carries the interpreter's xorshift, not a different stream).
func TestDeterminism(t *testing.T) {
	c := compileKr(t, testPrograms["floats"])
	var o1, o2 strings.Builder
	r1, err1 := Run(c.prog, c.config(interp.Plain, &o1))
	r2, err2 := Run(c.prog, c.config(interp.Plain, &o2))
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if o1.String() != o2.String() || r1.Work != r2.Work || r1.Steps != r2.Steps {
		t.Error("two VM runs diverged")
	}
}

// compileKrFacts is compileKr with caller-controlled absint facts, so a
// test can compare the fact-driven build against a facts-free build of
// the same module.
func compileKrFacts(t testing.TB, src string, withFacts bool) *compiled {
	t.Helper()
	file := source.NewFile("test.kr", src)
	errs := &source.ErrorList{}
	tree := parser.Parse(file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := types.Check(tree, file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	mod := irbuild.Build(tree, info, file, errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("irbuild: %v", err)
	}
	analysis.Run(mod)
	regs := regions.Analyze(mod, file)
	instr := instrument.Build(regs)
	var facts *absint.Facts
	if withFacts {
		facts = absint.Analyze(mod)
	}
	p := Compile(mod, regs, instr, facts)
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return &compiled{mod: mod, regs: regs, instr: instr, prog: p}
}

// TestUncheckedEmission pins the bounds-check-elimination contract: a
// program whose accesses and divisors are all provably safe compiles to
// unchecked opcodes when absint facts are supplied, and to zero unchecked
// opcodes when they are withheld (nil facts = compile as if -absint=off).
// Both builds must pass structural verification, and the unchecked build
// must not retain any checked indexed forms for the proven accesses.
func TestUncheckedEmission(t *testing.T) {
	src := `
int a[10];
int m[4][4];
void main() {
	for (int i = 0; i < 10; i++) {
		a[i] = i * 3;
	}
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			m[i][j] = a[i + j] / (j + 1);
		}
	}
	print(a[9] + m[3][3]);
}`
	unchecked := []opcode{
		opViewU, opLdIdxIU, opLdIdxFU, opStIdxU,
		opLdIdx2IU, opLdIdx2FU, opStIdx2U,
		opLdIdxNIU, opLdIdxNFU, opStIdxNU,
		opDivIU, opRemIU,
	}
	sum := func(ops map[opcode]int, set []opcode) int {
		n := 0
		for _, op := range set {
			n += ops[op]
		}
		return n
	}

	with := countOps(compileKrFacts(t, src, true).prog)
	without := countOps(compileKrFacts(t, src, false).prog)

	if n := sum(without, unchecked); n != 0 {
		t.Errorf("facts-free build emitted %d unchecked ops; ops: %v", n, without)
	}
	if sum(with, unchecked) == 0 {
		t.Errorf("fact-driven build emitted no unchecked ops for fully proven program; ops: %v", with)
	}
	// Every proven access family should have flipped: the fact-driven
	// build keeps no checked 1-D/2-D indexed ops and no checked div.
	for _, pair := range []struct {
		name    string
		checked []opcode
		flipped []opcode
	}{
		{"1-D store", []opcode{opStIdx}, []opcode{opStIdxU}},
		{"1-D load", []opcode{opLdIdxI, opLdIdxF}, []opcode{opLdIdxIU, opLdIdxFU}},
		{"2-D store", []opcode{opStIdx2}, []opcode{opStIdx2U}},
		{"division", []opcode{opDivI}, []opcode{opDivIU}},
	} {
		if sum(with, pair.checked) != 0 {
			t.Errorf("%s: fact-driven build retains checked ops; ops: %v", pair.name, with)
		}
		if sum(with, pair.flipped) == 0 && sum(without, pair.checked) > 0 {
			t.Errorf("%s: proven access did not use unchecked form; ops: %v", pair.name, with)
		}
	}

	// Both builds execute to the same output.
	var outA, outB strings.Builder
	c1 := compileKrFacts(t, src, true)
	c2 := compileKrFacts(t, src, false)
	if _, err := Run(c1.prog, c1.config(interp.Plain, &outA)); err != nil {
		t.Fatalf("fact-driven run: %v", err)
	}
	if _, err := Run(c2.prog, c2.config(interp.Plain, &outB)); err != nil {
		t.Fatalf("facts-free run: %v", err)
	}
	if outA.String() != outB.String() {
		t.Errorf("output diverged:\nwith facts: %q\nwithout:    %q", outA.String(), outB.String())
	}
}
