package krgen_test

// Differential tests over randomly generated programs: the strongest
// correctness evidence in the repository. Every seed must compile, run,
// and behave identically across execution modes, and every profile must
// satisfy the HCPA invariants.

import (
	"bytes"
	"strings"
	"testing"

	"kremlin"
	"kremlin/internal/krgen"
)

const seeds = 120

func generate(t *testing.T, seed int64) string {
	t.Helper()
	return krgen.Generate(seed, krgen.Default())
}

func compileSeed(t *testing.T, seed int64) *kremlin.Program {
	t.Helper()
	src := generate(t, seed)
	prog, err := kremlin.Compile("gen.kr", src)
	if err != nil {
		t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
	}
	return prog
}

func runOut(t *testing.T, seed int64, prog *kremlin.Program) (string, uint64) {
	t.Helper()
	var buf bytes.Buffer
	res, err := prog.Run(&kremlin.RunConfig{Out: &buf, MaxSteps: 50_000_000})
	if err != nil {
		t.Fatalf("seed %d: run: %v\nsource:\n%s", seed, err, generate(t, seed))
	}
	return buf.String(), res.Work
}

// TestGeneratedProgramsCompileAndRun: every seed yields a valid,
// terminating program that prints its digest.
func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog := compileSeed(t, seed)
		out, work := runOut(t, seed, prog)
		if !strings.HasPrefix(out, "digest ") {
			t.Fatalf("seed %d: output %q", seed, out)
		}
		if work == 0 {
			t.Fatalf("seed %d: no work", seed)
		}
	}
}

// TestInstrumentationPreservesSemantics: plain, gprof, and HCPA executions
// print identical output and count identical work.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		prog := compileSeed(t, seed)
		plainOut, plainWork := runOut(t, seed, prog)

		var gpBuf bytes.Buffer
		gpRes, err := prog.RunGprof(&kremlin.RunConfig{Out: &gpBuf, MaxSteps: 50_000_000})
		if err != nil {
			t.Fatalf("seed %d: gprof: %v", seed, err)
		}
		if gpBuf.String() != plainOut || gpRes.Work != plainWork {
			t.Fatalf("seed %d: gprof diverged (out %q vs %q, work %d vs %d)",
				seed, gpBuf.String(), plainOut, gpRes.Work, plainWork)
		}

		var hcBuf bytes.Buffer
		prof, hcRes, err := prog.Profile(&kremlin.RunConfig{Out: &hcBuf, MaxSteps: 50_000_000})
		if err != nil {
			t.Fatalf("seed %d: hcpa: %v", seed, err)
		}
		if hcBuf.String() != plainOut || hcRes.Work != plainWork {
			t.Fatalf("seed %d: hcpa diverged (out %q vs %q, work %d vs %d)",
				seed, hcBuf.String(), plainOut, hcRes.Work, plainWork)
		}
		if prof.TotalWork() != plainWork {
			t.Fatalf("seed %d: profile work %d != %d", seed, prof.TotalWork(), plainWork)
		}
	}
}

// TestProfileInvariantsOnGeneratedPrograms: SP/TP bounds, child ordering,
// and serialization round-trips hold for arbitrary region structures.
func TestProfileInvariantsOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < seeds; seed += 3 {
		prog := compileSeed(t, seed)
		prof, _, err := prog.Profile(&kremlin.RunConfig{MaxSteps: 50_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sum := prog.Summarize(prof)
		for c, em := range sum.Entries {
			if em.SelfP < 1 || em.TotalP < 1 || em.SelfP > em.TotalP+1e-9 {
				t.Fatalf("seed %d: entry %d: SP=%f TP=%f", seed, c, em.SelfP, em.TotalP)
			}
		}
		for _, st := range sum.Executed {
			if st.Coverage < 0 || st.Coverage > 1.0001 {
				t.Fatalf("seed %d: coverage %f", seed, st.Coverage)
			}
			if st.SelfP > st.TotalP+1e-9 {
				t.Fatalf("seed %d: region %s SP %f > TP %f", seed, st.Region.Label(), st.SelfP, st.TotalP)
			}
		}
		var buf bytes.Buffer
		if _, err := prof.WriteTo(&buf); err != nil {
			t.Fatalf("seed %d: serialize: %v", seed, err)
		}
	}
}

// TestDeterministicGeneration: the same seed gives the same program, and
// the same program gives the same profile.
func TestDeterministicGeneration(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if generate(t, seed) != generate(t, seed) {
			t.Fatalf("seed %d: generator nondeterministic", seed)
		}
	}
	prog := compileSeed(t, 7)
	p1, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalWork() != p2.TotalWork() || len(p1.Dict.Entries) != len(p2.Dict.Entries) {
		t.Error("profiling nondeterministic")
	}
}

// TestSeedsAreDiverse: different seeds give different programs (sanity of
// the generator itself).
func TestSeedsAreDiverse(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(0); seed < 20; seed++ {
		src := generate(t, seed)
		if prev, dup := seen[src]; dup {
			t.Fatalf("seeds %d and %d generated identical programs", prev, seed)
		}
		seen[src] = seed
	}
}

// TestStressConfig runs a deeper, wider generator configuration through
// the full differential check (fewer seeds: each program is bigger).
func TestStressConfig(t *testing.T) {
	cfg := krgen.Config{Funcs: 6, Globals: 9, MaxStmts: 7, MaxDepth: 4, MaxExpr: 4, LoopIters: 8}
	for seed := int64(1000); seed < 1020; seed++ {
		src := krgen.Generate(seed, cfg)
		prog, err := kremlin.Compile("stress.kr", src)
		if err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
		var plain bytes.Buffer
		pres, err := prog.Run(&kremlin.RunConfig{Out: &plain, MaxSteps: 100_000_000})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		var instr bytes.Buffer
		prof, hres, err := prog.Profile(&kremlin.RunConfig{Out: &instr, MaxSteps: 100_000_000})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		if plain.String() != instr.String() || pres.Work != hres.Work || prof.TotalWork() != pres.Work {
			t.Fatalf("seed %d: instrumentation diverged", seed)
		}
	}
}
