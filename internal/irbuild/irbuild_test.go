package irbuild

import (
	"testing"

	"kremlin/internal/cfg"
	"kremlin/internal/ir"
	"kremlin/internal/parser"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

func build(t *testing.T, src string) *ir.Module {
	t.Helper()
	errs := &source.ErrorList{}
	file := source.NewFile("t.kr", src)
	tree := parser.Parse(file, errs)
	if errs.HasErrors() {
		t.Fatalf("parse: %v", errs.Err())
	}
	info := types.Check(tree, file, errs)
	if errs.HasErrors() {
		t.Fatalf("check: %v", errs.Err())
	}
	mod := Build(tree, info, file, errs)
	if errs.HasErrors() {
		t.Fatalf("build: %v", errs.Err())
	}
	return mod
}

const ssaSample = `
float data[64];
int hits;

float work(int n, float seed) {
	float acc = seed;
	for (int i = 0; i < n; i++) {
		if (data[i] > acc) {
			acc = data[i];
			hits = hits + 1;
		} else {
			acc = acc * 0.5 + data[i];
		}
	}
	while (acc > 100.0) {
		acc /= 2.0;
	}
	return acc;
}

int main() {
	for (int i = 0; i < 64; i++) {
		data[i] = float(i % 7);
	}
	float r = work(64, 1.0);
	bool b = r > 0.0 && hits < 100;
	if (b) { print(r); }
	return hits;
}
`

// TestSSAPromotionComplete: mem2reg must remove every slot access.
func TestSSAPromotionComplete(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpLoadSlot || ins.Op == ir.OpStoreSlot {
					t.Errorf("%s: residual slot access %s in %s", f.Name, ins.Op, b)
				}
			}
		}
	}
}

// TestSSADefsDominateUses: the defining block of every operand must
// dominate the use (for phis: the corresponding predecessor).
func TestSSADefsDominateUses(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		g := cfg.New(f)
		idom := g.Dominators()
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				for ai, a := range ins.Args {
					def, ok := a.(*ir.Instr)
					if !ok || def == nil {
						continue
					}
					useBlock := b
					if ins.Op == ir.OpPhi {
						useBlock = b.Preds[ai]
					}
					if def.Block == nil {
						t.Fatalf("%s: operand %s of %s has no block", f.Name, def.Name(), ins.Name())
					}
					if !cfg.Dominates(idom, g.Index(def.Block), g.Index(useBlock)) {
						t.Errorf("%s: def %s (in %s) does not dominate use %s (in %s)",
							f.Name, def.Name(), def.Block, ins.Name(), useBlock)
					}
				}
			}
		}
	}
}

// TestPhiShape: phi arg counts match predecessor counts and phis lead
// their blocks.
func TestPhiShape(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			seenNonPhi := false
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpPhi {
					if seenNonPhi {
						t.Errorf("%s: phi after non-phi in %s", f.Name, b)
					}
					if len(ins.Args) != len(b.Preds) {
						t.Errorf("%s: phi arity %d != preds %d in %s", f.Name, len(ins.Args), len(b.Preds), b)
					}
					for _, a := range ins.Args {
						if a == nil {
							t.Errorf("%s: nil phi operand in %s", f.Name, b)
						}
					}
				} else {
					seenNonPhi = true
				}
			}
		}
	}
}

// TestBlockTermination: every block ends with exactly one terminator, and
// edges match terminator targets.
func TestBlockTermination(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			term := b.Terminator()
			if term == nil {
				t.Fatalf("%s: block %s lacks a terminator", f.Name, b)
			}
			for i, ins := range b.Instrs {
				if ins.IsTerminator() && i != len(b.Instrs)-1 {
					t.Errorf("%s: terminator mid-block in %s", f.Name, b)
				}
			}
			if len(term.Targets) != len(b.Succs) {
				t.Errorf("%s: %s has %d targets but %d successors", f.Name, term.Op, len(term.Targets), len(b.Succs))
			}
		}
	}
}

// TestStructuredLoopsHeaderDominated: CFGs built from Kr control flow are
// reducible — every natural loop's header dominates its whole body.
func TestStructuredLoopsHeaderDominated(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		g := cfg.New(f)
		idom := g.Dominators()
		for _, l := range g.Loops(idom) {
			for _, b := range l.Blocks {
				if !cfg.Dominates(idom, g.Index(l.Header), g.Index(b)) {
					t.Errorf("%s: loop header %s does not dominate body block %s", f.Name, l.Header, b)
				}
			}
		}
	}
}

// TestUnreachableRemoved: code after return generates no reachable blocks.
func TestUnreachableRemoved(t *testing.T) {
	mod := build(t, `
int main() {
	for (int i = 0; i < 3; i++) {
		if (i == 1) {
			break;
		}
		continue;
	}
	return 1;
}
`)
	f := mod.Main()
	reach := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	for _, b := range f.Blocks {
		if !reach[b] {
			t.Errorf("unreachable block %s retained", b)
		}
	}
	// Block IDs are re-densified.
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
	}
}

// TestGlobalConstantFolding: global array dims and initializers fold.
func TestGlobalConstantFolding(t *testing.T) {
	mod := build(t, `
float m[4*4][2+1];
int k = -(3 - 8);
int main() { return k + int(m[0][0]); }
`)
	g := mod.Globals[0]
	if len(g.Dims) != 2 || g.Dims[0] != 16 || g.Dims[1] != 3 {
		t.Errorf("dims = %v", g.Dims)
	}
	init, ok := mod.Globals[1].Init.(*ir.ConstInt)
	if !ok || init.V != 5 {
		t.Errorf("init = %v", mod.Globals[1].Init)
	}
}

func TestNonConstantGlobalRejected(t *testing.T) {
	errs := &source.ErrorList{}
	file := source.NewFile("t.kr", `
int n = 4;
float a[5];
int main() { float b[n]; b[0] = a[0]; return 0; }
`)
	tree := parser.Parse(file, errs)
	info := types.Check(tree, file, errs)
	Build(tree, info, file, errs)
	if errs.HasErrors() {
		t.Fatalf("local dynamic arrays must be allowed: %v", errs.Err())
	}

	errs2 := &source.ErrorList{}
	file2 := source.NewFile("t.kr", `
int n = 4;
float a[n];
int main() { return 0; }
`)
	tree2 := parser.Parse(file2, errs2)
	info2 := types.Check(tree2, file2, errs2)
	Build(tree2, info2, file2, errs2)
	if !errs2.HasErrors() {
		t.Fatal("global array with non-constant dimension must be rejected")
	}
}

// TestShortCircuitLowering: && lowers to control flow plus a phi.
func TestShortCircuitLowering(t *testing.T) {
	mod := build(t, `
int f() { return 1; }
int main() {
	bool b = f() > 0 && f() < 2;
	if (b) { return 1; }
	return 0;
}
`)
	f := mod.Main()
	calls := 0
	branches := 0
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpCall {
				calls++
			}
			if ins.Op == ir.OpBr {
				branches++
			}
		}
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
	if branches < 2 { // one for &&, one for if
		t.Errorf("branches = %d, want >= 2", branches)
	}
}

// TestImplicitReturnValue: a non-void function falling off the end returns
// a zero value.
func TestImplicitReturn(t *testing.T) {
	mod := build(t, `
float f(int x) {
	if (x > 0) {
		return 1.0;
	}
}
int main() { print(f(0)); return 0; }
`)
	f := mod.ByName["f"]
	rets := 0
	for _, b := range f.Blocks {
		if term := b.Terminator(); term != nil && term.Op == ir.OpRet {
			rets++
			if len(term.Args) != 1 {
				t.Error("float function return without value")
			}
		}
	}
	if rets != 2 {
		t.Errorf("returns = %d, want 2 (explicit + implicit)", rets)
	}
}

// TestValueIDsAreDense: IDs are unique and within NumValues.
func TestValueIDsUnique(t *testing.T) {
	mod := build(t, ssaSample)
	for _, f := range mod.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				if ins.ID < 0 || ins.ID >= f.NumValues() {
					t.Fatalf("%s: ID %d out of range", f.Name, ins.ID)
				}
				if seen[ins.ID] {
					t.Fatalf("%s: duplicate ID %d", f.Name, ins.ID)
				}
				seen[ins.ID] = true
			}
		}
	}
}

// TestModuleStringSmoke: the IR printer runs and mentions key constructs.
func TestModuleString(t *testing.T) {
	mod := build(t, ssaSample)
	s := mod.String()
	for _, frag := range []string{"func work", "phi", "br", "global @hits", "view"} {
		if !containsStr(s, frag) {
			t.Errorf("IR dump missing %q", frag)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPhiNumberingDeterministic: one source must lower to the same value
// IDs on every compile; content hashes and cache keys depend on them. The
// break gives the inner loop's body a dominance frontier of two blocks.
func TestPhiNumberingDeterministic(t *testing.T) {
	const src = `
int main() {
	int p = 0;
	int q = 1;
	for (int i = 0; i < 6; i++) {
		for (int j = 0; j < 5; j++) {
			p++;
			q = q + p;
			if (p > 7) {
				break;
			}
		}
	}
	print("r", p + q);
	return 0;
}
`
	want := build(t, src).ByName["main"].String()
	for k := 0; k < 20; k++ {
		if got := build(t, src).ByName["main"].String(); got != want {
			t.Fatalf("compile %d numbered values differently:\n%s\nvs\n%s", k, got, want)
		}
	}
}
