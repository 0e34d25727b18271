package kremlin_test

import (
	"bytes"
	"strings"
	"testing"

	"kremlin"

	"kremlin/internal/planner"
	"kremlin/internal/regions"
)

const smokeSrc = `
float a[1000];
float b[1000];
float acc;

void initArrays() {
	for (int i = 0; i < 1000; i++) {
		a[i] = float(i) * 0.5;
	}
}

// DOALL: every iteration is independent.
void doall() {
	for (int i = 0; i < 1000; i++) {
		b[i] = a[i] * 2.0 + 1.0;
	}
}

// Serial: loop-carried dependence through b.
void serialChain() {
	for (int i = 1; i < 1000; i++) {
		b[i] = b[i-1] * 0.999 + a[i];
	}
}

// Reduction over a.
void reduce() {
	for (int i = 0; i < 1000; i++) {
		acc = acc + a[i];
	}
}

int main() {
	initArrays();
	doall();
	serialChain();
	reduce();
	print("acc", acc);
	return 0;
}
`

func compileSmoke(t *testing.T) *kremlin.Program {
	t.Helper()
	prog, err := kremlin.Compile("smoke.kr", smokeSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestSmokeRunOutput(t *testing.T) {
	prog := compileSmoke(t)
	var out bytes.Buffer
	res, err := prog.Run(&kremlin.RunConfig{Out: &out})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "acc ") {
		t.Fatalf("unexpected output %q", out.String())
	}
	if res.Work == 0 || res.Steps == 0 {
		t.Fatalf("expected nonzero work/steps, got %+v", res)
	}
}

func TestSmokeProfileSelfParallelism(t *testing.T) {
	prog := compileSmoke(t)
	prof, res, err := prog.Profile(nil)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if res.Work == 0 {
		t.Fatal("no work recorded")
	}
	sum := prog.Summarize(prof)

	find := func(fn string) map[regions.Kind]float64 {
		out := map[regions.Kind]float64{}
		for _, st := range sum.Executed {
			if st.Region.Func.Name == fn && st.Region.Kind == regions.LoopRegion {
				out[st.Region.Kind] = st.SelfP
			}
		}
		return out
	}

	if sp := find("doall")[regions.LoopRegion]; sp < 500 {
		t.Errorf("doall loop self-parallelism = %.1f, want ~1000", sp)
	}
	if sp := find("serialChain")[regions.LoopRegion]; sp > 5 {
		t.Errorf("serial loop self-parallelism = %.1f, want ~1", sp)
	}
	if sp := find("reduce")[regions.LoopRegion]; sp < 100 {
		t.Errorf("reduction loop self-parallelism = %.1f, want high (dependence broken)", sp)
	}
	if sp := find("initArrays")[regions.LoopRegion]; sp < 500 {
		t.Errorf("init loop self-parallelism = %.1f, want ~1000", sp)
	}
}

func TestSmokePlan(t *testing.T) {
	prog := compileSmoke(t)
	prof, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	plan := prog.Plan(prof, planner.OpenMP())
	if len(plan.Recs) == 0 {
		t.Fatal("empty plan")
	}
	for _, r := range plan.Recs {
		if r.Stats.Region.Func.Name == "serialChain" {
			t.Errorf("plan recommends the serial loop: %s", r.Label())
		}
	}
	// Plans are ordered by decreasing benefit.
	for i := 1; i < len(plan.Recs); i++ {
		if plan.Recs[i].SavedFrac > plan.Recs[i-1].SavedFrac+1e-12 {
			t.Errorf("plan not sorted at %d", i)
		}
	}
}

// TestCompiledProgramDropsCFGs: the dependence analysis and the
// instrumentation tables reuse the CFGs the region analysis built, and a
// compiled program does not keep them alive.
func TestCompiledProgramDropsCFGs(t *testing.T) {
	prog := compileSmoke(t)
	for f, fi := range prog.Regions.PerFunc {
		if fi.Graph != nil || fi.Idom != nil {
			t.Errorf("%s: compiled program still holds its CFG", f.Name)
		}
	}
}
