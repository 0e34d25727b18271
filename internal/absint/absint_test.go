package absint_test

import (
	"strings"
	"testing"

	"kremlin/internal/absint"
	"kremlin/internal/analysis"
	"kremlin/internal/ir"
	"kremlin/internal/irbuild"
	"kremlin/internal/parser"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// compile lowers src through the standard front half of the pipeline
// (parse, typecheck, lower, annotate) and runs the abstract interpreter.
func compile(t *testing.T, src string) (*ir.Module, *absint.Facts) {
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
	return mod, absint.Analyze(mod)
}

// viewsIn collects the OpView instructions of the named function.
func viewsIn(mod *ir.Module, fn string) []*ir.Instr {
	var out []*ir.Instr
	f := mod.ByName[fn]
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpView {
				out = append(out, ins)
			}
		}
	}
	return out
}

func TestInBoundsSimpleLoop(t *testing.T) {
	mod, facts := compile(t, `
int main() {
	int a[10];
	int s = 0;
	for (int i = 0; i < 10; i++) {
		a[i] = i;
	}
	for (int i = 0; i < 10; i++) {
		s = s + a[i];
	}
	return s;
}
`)
	views := viewsIn(mod, "main")
	if len(views) == 0 {
		t.Fatal("no views found")
	}
	for _, v := range views {
		if !facts.InBounds(v) {
			t.Errorf("view at pos %d not proven in bounds", v.Pos)
		}
	}
	if ds := facts.Diagnostics(); len(ds) != 0 {
		t.Errorf("unexpected diagnostics on clean program: %v", ds)
	}
}

func TestInBoundsGlobalNest(t *testing.T) {
	mod, facts := compile(t, `
float g[8][16];
int main() {
	for (int i = 0; i < 8; i++) {
		for (int j = 0; j < 16; j++) {
			g[i][j] = 1.5;
		}
	}
	return 0;
}
`)
	for _, v := range viewsIn(mod, "main") {
		if !facts.InBounds(v) {
			t.Errorf("nested view at pos %d not proven in bounds", v.Pos)
		}
	}
}

func TestNegativeStepInduction(t *testing.T) {
	// Widening must converge on a down-counting induction and still prove
	// bounds from the loop condition.
	mod, facts := compile(t, `
int main() {
	int a[11];
	for (int i = 10; i > 0; i--) {
		a[i] = i;
	}
	return a[5];
}
`)
	for _, v := range viewsIn(mod, "main") {
		if !facts.InBounds(v) {
			t.Errorf("down-counted view at pos %d not proven in bounds", v.Pos)
		}
	}
}

func TestNotProvenWhenUnbounded(t *testing.T) {
	// The loop bound comes from rand(): the index range is [0, +inf), so
	// bounds elimination must NOT fire.
	mod, facts := compile(t, `
int main() {
	int a[10];
	int n = rand() % 20;
	int s = 0;
	for (int i = 0; i < n; i++) {
		s = s + a[i % 10];
	}
	return s;
}
`)
	proven := 0
	for _, v := range viewsIn(mod, "main") {
		if facts.InBounds(v) {
			proven++
		}
	}
	// a[i % 10] IS provable via the remainder range [0, 9]; the point is
	// that the analysis doesn't crash and doesn't claim anything unbounded.
	if proven == 0 {
		t.Log("note: i%10 subscript not proven (acceptable but imprecise)")
	}
}

func TestContradictoryRefinementUnreachable(t *testing.T) {
	_, facts := compile(t, `
int main() {
	int x = 3;
	if (x > 5) {
		return 1;
	}
	return 0;
}
`)
	var hit bool
	for _, d := range facts.Diagnostics() {
		if d.Kind == "unreachable" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("expected unreachable diagnostic, got %v", facts.Diagnostics())
	}
}

func TestDefiniteDivZeroIsError(t *testing.T) {
	_, facts := compile(t, `
int main() {
	int z = 0;
	return 10 / z;
}
`)
	errs := facts.Errors()
	if len(errs) != 1 || errs[0].Kind != "div-zero" {
		t.Fatalf("want one div-zero error, got %v", facts.Diagnostics())
	}
}

func TestDivZeroInBranchIsWarn(t *testing.T) {
	_, facts := compile(t, `
int main() {
	int z = 0;
	if (rand() % 2 == 0) {
		return 10 % z;
	}
	return 0;
}
`)
	if len(facts.Errors()) != 0 {
		t.Fatalf("conditional fault must not be error severity: %v", facts.Errors())
	}
	var warn bool
	for _, d := range facts.Diagnostics() {
		if d.Kind == "mod-zero" && d.Severity.String() == "warn" {
			warn = true
		}
	}
	if !warn {
		t.Fatalf("want mod-zero warning, got %v", facts.Diagnostics())
	}
}

func TestDefiniteOOBIndex(t *testing.T) {
	_, facts := compile(t, `
int main() {
	int a[4];
	a[0] = 1;
	return a[7];
}
`)
	var hit bool
	for _, d := range facts.Errors() {
		if d.Kind == "oob-index" && strings.Contains(d.Msg, "[0,4)") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("want definite oob-index error, got %v", facts.Diagnostics())
	}
}

func TestNonZeroDivisorFact(t *testing.T) {
	mod, facts := compile(t, `
int main() {
	int s = 0;
	for (int i = 1; i < 100; i++) {
		s = s + 1000 / i;
	}
	return s;
}
`)
	var divs []*ir.Instr
	for _, b := range mod.ByName["main"].Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpBin && ins.Bin == ir.BinDiv {
				divs = append(divs, ins)
			}
		}
	}
	if len(divs) != 1 {
		t.Fatalf("want 1 div, got %d", len(divs))
	}
	if !facts.NonZeroDivisor(divs[0]) {
		t.Error("divisor i in [1,99] not proven nonzero")
	}
}

func TestCongruenceThroughDim(t *testing.T) {
	// dim(a, 0) on a constant-extent array is an exact value; stride-2
	// subscripts stay within an even congruence class and in bounds.
	mod, facts := compile(t, `
int main() {
	int a[16];
	int s = 0;
	for (int i = 0; i < dim(a, 0); i = i + 2) {
		a[i] = i;
	}
	for (int i = 0; i < dim(a, 0); i++) {
		s = s + a[i];
	}
	return s;
}
`)
	for _, v := range viewsIn(mod, "main") {
		if !facts.InBounds(v) {
			t.Errorf("dim-bounded view at pos %d not proven in bounds", v.Pos)
		}
	}
}

func TestIntervalOverflowAtInt64Boundary(t *testing.T) {
	// 9e18 + 9e18 wraps; the analysis must not claim a bound that the
	// wrapped runtime value violates, and must not report a definite fault.
	_, facts := compile(t, `
int main() {
	int big = 9000000000000000000;
	int x = big + big;
	if (x < 0) {
		return 1;
	}
	return 0;
}
`)
	for _, d := range facts.Errors() {
		t.Errorf("no definite fault exists, got %v", d)
	}
	// Neither branch may be proven unreachable: x's interval is ⊤ after
	// the wrapping add.
	for _, d := range facts.Diagnostics() {
		if d.Kind == "unreachable" {
			t.Errorf("wrapped add must not prove a branch dead: %v", d)
		}
	}
}

func TestInterproceduralParamRange(t *testing.T) {
	// fill is called only with n=8 on an 8-extent array: the callee's
	// views are provable through the interprocedural parameter join.
	mod, facts := compile(t, `
int fill(int a[], int n) {
	for (int i = 0; i < n; i++) {
		a[i] = i;
	}
	return 0;
}
int g[8];
int main() {
	fill(g, 8);
	return g[3];
}
`)
	for _, v := range viewsIn(mod, "fill") {
		if !facts.InBounds(v) {
			t.Errorf("callee view at pos %d not proven via param join", v.Pos)
		}
	}
}

func TestMustIterate(t *testing.T) {
	mod, facts := compile(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		for (int j = 0; j < 5; j++) {
			s = s + j;
		}
	}
	return s;
}
`)
	f := mod.ByName["main"]
	iter := 0
	for _, b := range f.Blocks {
		if facts.MustIterate(b) {
			iter++
		}
	}
	if iter != 2 {
		t.Errorf("want both loop headers must-iterate, got %d", iter)
	}
}

func TestDeadStoreGlobal(t *testing.T) {
	_, facts := compile(t, `
int sink[4];
int main() {
	sink[0] = 42;
	return 0;
}
`)
	var hit bool
	for _, d := range facts.Diagnostics() {
		if d.Kind == "dead-store" && strings.Contains(d.Msg, "sink") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("want dead-store on sink, got %v", facts.Diagnostics())
	}
}

func TestAllocNonPositiveExtent(t *testing.T) {
	_, facts := compile(t, `
int main() {
	int n = 0;
	float a[n];
	a[0] = 1.0;
	return 0;
}
`)
	var hit bool
	for _, d := range facts.Errors() {
		if d.Kind == "alloc-nonpositive" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("want alloc-nonpositive error, got %v", facts.Diagnostics())
	}
}

func TestAbsOfMinInt64Unbounded(t *testing.T) {
	// abs() of a possibly-MinInt64 value wraps back to MinInt64: the
	// result must not be claimed nonnegative (no in-bounds proof).
	mod, facts := compile(t, `
int main() {
	int a[10];
	int x = rand() + rand();
	int i = abs(x);
	if (i < 10) {
		return a[i];
	}
	return 0;
}
`)
	// rand()+rand() may wrap to any int64 including MinInt64, whose abs()
	// wraps back to MinInt64 and stays negative, so a[i] is not provable.
	// (rand()-rand() would NOT do: its true range is [-MaxInt64, MaxInt64].)
	for _, v := range viewsIn(mod, "main") {
		if facts.InBounds(v) {
			t.Errorf("abs(MinInt64) wraps negative; view must not be proven")
		}
	}
}

// TestReturnSummaryAfterRerun: a helper whose final pass re-runs its
// fixpoint (its parameter is informative) still gets its return summary,
// so the caller sees the call's value and an out-of-range index built
// from it is not proven in bounds (a ⊥ summary made the loop's view
// vacuously in bounds, and the VM ran it unchecked).
func TestReturnSummaryAfterRerun(t *testing.T) {
	mod, facts := compile(t, `
int a[10];
int h(int x) {
	int r = x + 17;
	return r;
}
int main() {
	int k = h(3);
	int s = 0;
	for (int i = 0; i < 2; i++) {
		s = s + a[k];
	}
	return s;
}
`)
	var call *ir.Instr
	for _, b := range mod.ByName["main"].Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpCall && ins.Callee != nil {
				call = ins
			}
		}
	}
	if call == nil {
		t.Fatal("no call to h found")
	}
	v, ok := facts.ValueOf(call)
	if c, isConst := v.IsConst(); !ok || !isConst || c != 20 {
		t.Errorf("ValueOf(h(3)) = %v (ok %v), want [20,20]", v, ok)
	}
	for _, view := range viewsIn(mod, "main") {
		if facts.InBounds(view) {
			t.Errorf("view at pos %d proven in bounds with index 20 on a[10]", view.Pos)
		}
	}
}
