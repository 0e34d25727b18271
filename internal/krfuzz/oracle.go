package krfuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"kremlin"
	"kremlin/internal/ast"
	"kremlin/internal/bytecode"
	"kremlin/internal/depcheck"
	"kremlin/internal/parser"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
	"kremlin/internal/source"
)

// Failure describes one oracle violation: which check failed and on what
// program. It satisfies error so oracle results flow through normal error
// plumbing.
type Failure struct {
	Seed   int64  // generating seed, if known (0 for external sources)
	Source string // full Kr source of the failing program
	Check  string // the oracle check that failed, e.g. "engine-profile"
	Detail string // what differed
}

func (f *Failure) Error() string {
	return fmt.Sprintf("krfuzz oracle: check %q failed: %s", f.Check, f.Detail)
}

// OracleConfig tunes the differential/metamorphic oracle.
type OracleConfig struct {
	// MaxSteps bounds each interpreter execution (0 = 50M). Generated
	// programs are tiny; the bound exists to turn a hypothetical
	// non-termination bug into a reported failure instead of a hang.
	MaxSteps uint64
}

func (c OracleConfig) maxSteps() uint64 {
	if c.MaxSteps == 0 {
		return 50_000_000
	}
	return c.MaxSteps
}

// Check runs the full oracle on one Kr program. A nil return means every
// differential, metamorphic, and invariant check passed; otherwise the
// error is a *Failure naming the first violated check.
//
// The pipeline configurations compared:
//
//	plain interpretation  — ground truth for output and work
//	gprof mode            — instrumented control flow, work-only counters
//	HCPA mode             — full shadow-memory profiling
//	dependence breaking off — profile changes, observable behavior must not
func Check(name, src string, cfg OracleConfig) error {
	fail := func(check, format string, args ...interface{}) error {
		return &Failure{Source: src, Check: check, Detail: fmt.Sprintf(format, args...)}
	}

	prog, err := kremlin.Compile(name, src)
	if err != nil {
		return fail("compile", "%v", err)
	}

	// Ground truth: uninstrumented run.
	var plainOut strings.Builder
	run := func(out *strings.Builder) *kremlin.RunConfig {
		return &kremlin.RunConfig{Out: out, MaxSteps: cfg.maxSteps()}
	}
	plain, err := prog.Run(run(&plainOut))
	if err != nil {
		return fail("plain-run", "%v", err)
	}

	// Lint must be silent on clean seeds: an error-severity finding claims
	// every terminating run of main faults, and the plain run just
	// terminated cleanly — any such finding is a soundness bug in the
	// abstract interpreter.
	if errs := prog.Absint.Errors(); len(errs) > 0 {
		return fail("lint-false-positive",
			"program ran cleanly but lint claims a definite fault: %s (%s)", errs[0].Msg, errs[0].Kind)
	}

	// Differential: gprof instrumentation must not change behavior.
	var gprofOut strings.Builder
	gprof, err := prog.RunGprof(run(&gprofOut))
	if err != nil {
		return fail("gprof-run", "%v", err)
	}
	if gprofOut.String() != plainOut.String() {
		return fail("gprof-output", "gprof output differs from plain:\n--- plain ---\n%s--- gprof ---\n%s", plainOut.String(), gprofOut.String())
	}
	if gprof.Work != plain.Work {
		return fail("gprof-work", "gprof work %d, plain %d", gprof.Work, plain.Work)
	}

	// Differential: HCPA instrumentation must not change behavior, and the
	// profile's total work must equal the executed work.
	var hcpaOut strings.Builder
	prof, hres, err := prog.Profile(run(&hcpaOut))
	if err != nil {
		return fail("hcpa-run", "%v", err)
	}
	if hcpaOut.String() != plainOut.String() {
		return fail("hcpa-output", "HCPA output differs from plain:\n--- plain ---\n%s--- hcpa ---\n%s", plainOut.String(), hcpaOut.String())
	}
	if hres.Work != plain.Work {
		return fail("hcpa-work", "HCPA work %d, plain %d", hres.Work, plain.Work)
	}
	if tw := prof.TotalWork(); tw != plain.Work {
		return fail("profile-total-work", "profile TotalWork %d, executed work %d", tw, plain.Work)
	}

	// Differential: the two execution engines must be observably identical.
	// The runs above used the default engine (the bytecode VM); replay
	// plain, gprof, and HCPA on the tree-walking reference interpreter and
	// demand bit-identical output, counters, and profile bytes. The
	// compiled bytecode must also pass structural verification.
	if err := bytecode.Verify(prog.Bytecode()); err != nil {
		return fail("bytecode-verify", "%v", err)
	}
	tree := func(out *strings.Builder) *kremlin.RunConfig {
		c := run(out)
		c.Engine = kremlin.EngineTree
		return c
	}
	var treeOut strings.Builder
	treePlain, err := prog.Run(tree(&treeOut))
	if err != nil {
		return fail("tree-plain-run", "%v", err)
	}
	if treeOut.String() != plainOut.String() {
		return fail("engine-output", "VM output differs from tree:\n--- tree ---\n%s--- vm ---\n%s", treeOut.String(), plainOut.String())
	}
	if treePlain.Work != plain.Work || treePlain.Steps != plain.Steps {
		return fail("engine-counters", "tree work/steps %d/%d, vm %d/%d", treePlain.Work, treePlain.Steps, plain.Work, plain.Steps)
	}
	treeGprof, err := prog.RunGprof(tree(&strings.Builder{}))
	if err != nil {
		return fail("tree-gprof-run", "%v", err)
	}
	if treeGprof.Work != gprof.Work || treeGprof.Steps != gprof.Steps {
		return fail("engine-gprof-counters", "tree work/steps %d/%d, vm %d/%d", treeGprof.Work, treeGprof.Steps, gprof.Work, gprof.Steps)
	}
	if !reflect.DeepEqual(treeGprof.Gprof, gprof.Gprof) {
		return fail("engine-gprof-entries", "gprof region profiles diverged between engines")
	}
	eprof, eres, err := prog.Profile(tree(&strings.Builder{}))
	if err != nil {
		return fail("tree-hcpa-run", "%v", err)
	}
	if eres.Work != hres.Work || eres.Steps != hres.Steps {
		return fail("engine-hcpa-counters", "tree work/steps %d/%d, vm %d/%d", eres.Work, eres.Steps, hres.Work, hres.Steps)
	}
	if eres.ShadowPages != hres.ShadowPages || eres.ShadowWrites != hres.ShadowWrites {
		return fail("engine-hcpa-shadow", "tree pages/writes %d/%d, vm %d/%d", eres.ShadowPages, eres.ShadowWrites, hres.ShadowPages, hres.ShadowWrites)
	}
	if tb, vb := profileBytes(eprof), profileBytes(prof); !bytes.Equal(tb, vb) {
		return fail("engine-profile", "HCPA profiles serialized differently between engines (%d vs %d bytes)", len(tb), len(vb))
	}

	// Differential: the checked and unchecked bytecode builds must be
	// observably identical. The default build consumes the abstract
	// interpretation (unchecked opcode variants, wider fusion); with
	// -absint=off every bounds and divisor check stays explicit. Output,
	// counters, and profile bytes must not move.
	aprog, err := kremlin.CompileWith(name, src, kremlin.CompileOptions{DisableAbsint: true})
	if err != nil {
		return fail("absint-off-compile", "%v", err)
	}
	if err := bytecode.Verify(aprog.Bytecode()); err != nil {
		return fail("absint-off-verify", "%v", err)
	}
	var aOut strings.Builder
	aprof, ares, err := aprog.Profile(run(&aOut))
	if err != nil {
		return fail("absint-off-run", "%v", err)
	}
	if aOut.String() != plainOut.String() {
		return fail("absint-off-output", "output differs with absint off:\n--- on ---\n%s--- off ---\n%s", plainOut.String(), aOut.String())
	}
	if ares.Work != hres.Work || ares.Steps != hres.Steps {
		return fail("absint-off-counters", "absint-off work/steps %d/%d, default %d/%d", ares.Work, ares.Steps, hres.Work, hres.Steps)
	}
	if ab, db := profileBytes(aprof), profileBytes(prof); !bytes.Equal(ab, db) {
		return fail("absint-off-profile", "profiles serialized differently with absint off (%d vs %d bytes)", len(ab), len(db))
	}

	if err := checkProfileInvariants(src, prog, prof); err != nil {
		return err
	}
	if err := checkPlannerBounds(src, prog, prof); err != nil {
		return err
	}

	// Soundness: a loop the static dependence analyzer proved parallel must
	// never exhibit a dynamic loop-carried flow dependence. The runtime
	// tracer flags exactly the cross-iteration reads HCPA would serialize
	// (broken induction/reduction dependences excluded on both sides), so
	// any overlap is a bug in the static proof.
	tcfg := run(&strings.Builder{})
	tcfg.TraceDeps = true
	_, tres, err := prog.Profile(tcfg)
	if err != nil {
		return fail("deptrace-run", "%v", err)
	}
	carried := make(map[int]bool, len(tres.CarriedDeps))
	for _, id := range tres.CarriedDeps {
		carried[id] = true
	}
	for _, rep := range prog.Vet.Loops {
		if rep.Verdict == depcheck.Parallel && carried[rep.Region.ID] {
			return fail("depcheck-soundness",
				"loop %s proved parallel statically but showed a loop-carried dependence at run time",
				rep.Region.Label())
		}
	}

	// Determinism: a second sequential profile must serialize to the same
	// bytes (dictionary construction order included).
	prof2, _, err := prog.Profile(run(&strings.Builder{}))
	if err != nil {
		return fail("determinism", "second profile run failed: %v", err)
	}
	b1, b2 := profileBytes(prof), profileBytes(prof2)
	if !bytes.Equal(b1, b2) {
		return fail("determinism", "two sequential profiles serialized differently (%d vs %d bytes)", len(b1), len(b2))
	}

	// Serialization: WriteTo → ReadFrom must round-trip exactly.
	rt, err := profile.ReadFrom(bytes.NewReader(b1))
	if err != nil {
		return fail("serialize-roundtrip", "ReadFrom: %v", err)
	}
	if !bytes.Equal(profileBytes(rt), b1) {
		return fail("serialize-roundtrip", "profile changed across WriteTo/ReadFrom")
	}

	// Metamorphic: disabling induction/reduction dependence breaking
	// changes critical paths, never observable behavior or work.
	dprog, err := kremlin.CompileWith(name, src, kremlin.CompileOptions{DisableDependenceBreaking: true})
	if err != nil {
		return fail("nodep-compile", "%v", err)
	}
	var depOut strings.Builder
	dres, err := dprog.Run(run(&depOut))
	if err != nil {
		return fail("nodep-run", "%v", err)
	}
	if depOut.String() != plainOut.String() {
		return fail("nodep-output", "output differs with dependence breaking disabled")
	}
	if dres.Work != plain.Work {
		return fail("nodep-work", "work %d with dependence breaking disabled, plain %d", dres.Work, plain.Work)
	}

	// Printer fixpoint: the canonical rendering of the parse tree must
	// itself parse, and re-render identically.
	if err := checkPrintFixpoint(src, prog.AST); err != nil {
		return err
	}
	return nil
}

// checkProfileInvariants verifies the HCPA laws on every dictionary entry
// and every aggregated region: work ≥ cp ≥ 1, children consistent with the
// parent, SP/TP ≥ 1, SelfP ≤ TotalP, coverage bounded.
func checkProfileInvariants(src string, prog *kremlin.Program, prof *profile.Profile) error {
	fail := func(check, format string, args ...interface{}) error {
		return &Failure{Source: src, Check: check, Detail: fmt.Sprintf(format, args...)}
	}
	entries := prof.Dict.Entries
	for i, e := range entries {
		if e.CP < 1 {
			return fail("invariant-cp", "entry %d (region %d): CP %d < 1", i, e.StaticID, e.CP)
		}
		if e.Work < e.CP {
			return fail("invariant-work-cp", "entry %d (region %d): work %d < cp %d", i, e.StaticID, e.Work, e.CP)
		}
		var childWork uint64
		for _, c := range e.Children {
			if c.Char < 0 || int(c.Char) >= len(entries) {
				return fail("invariant-child-ref", "entry %d: child char %d out of range", i, c.Char)
			}
			if c.Count <= 0 {
				return fail("invariant-child-count", "entry %d: child %d count %d", i, c.Char, c.Count)
			}
			child := entries[c.Char]
			if child.CP > e.CP {
				return fail("invariant-child-cp", "entry %d: child %d cp %d exceeds parent cp %d", i, c.Char, child.CP, e.CP)
			}
			childWork += uint64(c.Count) * child.Work
		}
		if childWork > e.Work {
			return fail("invariant-child-work", "entry %d: Σ child work %d exceeds own work %d", i, childWork, e.Work)
		}
	}
	for _, r := range prof.Roots {
		if r < 0 || int(r) >= len(entries) {
			return fail("invariant-root", "root char %d out of range", r)
		}
	}

	sum := prog.Summarize(prof)
	for i, em := range sum.Entries {
		if em.SelfP < 1 {
			return fail("invariant-selfp", "entry %d: SelfP %g < 1", i, em.SelfP)
		}
		if em.TotalP < 1 {
			return fail("invariant-totalp", "entry %d: TotalP %g < 1", i, em.TotalP)
		}
	}
	for _, st := range sum.Executed {
		if st.SelfP < 1 {
			return fail("invariant-region-selfp", "region %s: SelfP %g < 1", st.Region.Label(), st.SelfP)
		}
		if st.TotalP < 1 {
			return fail("invariant-region-totalp", "region %s: TotalP %g < 1", st.Region.Label(), st.TotalP)
		}
		if st.SelfP > st.TotalP+1e-9 {
			return fail("invariant-sp-le-tp", "region %s: SelfP %g > TotalP %g", st.Region.Label(), st.SelfP, st.TotalP)
		}
		if st.Coverage < 0 || st.Coverage > 1.0001 {
			return fail("invariant-coverage", "region %s: coverage %g outside [0,1]", st.Region.Label(), st.Coverage)
		}
		if st.Instances <= 0 {
			return fail("invariant-instances", "region %s: %d instances", st.Region.Label(), st.Instances)
		}
	}
	return nil
}

// checkPlannerBounds verifies every personality's plan stays inside its
// mathematical bounds: per-recommendation speedup in [1, 100] (or
// [1, cores] with a core cap), saved fractions in [0, 1), no duplicate
// regions, whole-program estimate in [1, 100].
func checkPlannerBounds(src string, prog *kremlin.Program, prof *profile.Profile) error {
	fail := func(check, format string, args ...interface{}) error {
		return &Failure{Source: src, Check: check, Detail: fmt.Sprintf(format, args...)}
	}
	capped := planner.OpenMP()
	capped.Name = "openmp-8core"
	capped.MaxCores = 8
	for _, pers := range []planner.Personality{planner.OpenMP(), planner.Cilk(), planner.WorkOnly(), planner.WorkSP(), capped} {
		plan := prog.Plan(prof, pers)
		maxSpeedup := 100.0
		if pers.MaxCores > 0 {
			maxSpeedup = float64(pers.MaxCores)
		}
		seen := map[int]bool{}
		for _, rec := range plan.Recs {
			id := rec.Stats.Region.ID
			if seen[id] {
				return fail("planner-dup", "%s: region %s recommended twice", pers.Name, rec.Label())
			}
			seen[id] = true
			if rec.SavedFrac < 0 || rec.SavedFrac >= 1 {
				return fail("planner-saved-frac", "%s: region %s SavedFrac %g outside [0,1)", pers.Name, rec.Label(), rec.SavedFrac)
			}
			if rec.EstSpeedup < 1 || rec.EstSpeedup > maxSpeedup+1e-9 {
				return fail("planner-speedup", "%s: region %s EstSpeedup %g outside [1,%g]", pers.Name, rec.Label(), rec.EstSpeedup, maxSpeedup)
			}
		}
		if plan.EstProgramSpeedup < 1 || plan.EstProgramSpeedup > 100+1e-9 {
			return fail("planner-program-speedup", "%s: EstProgramSpeedup %g outside [1,100]", pers.Name, plan.EstProgramSpeedup)
		}
		// Rendering must be deterministic.
		if a, b := plan.Render(), prog.Plan(prof, pers).Render(); a != b {
			return fail("planner-render-determinism", "%s: two renders of the same profile differ", pers.Name)
		}
	}
	return nil
}

// checkPrintFixpoint asserts Print∘Parse is a fixpoint of Print.
func checkPrintFixpoint(src string, tree *ast.File) error {
	printed := ast.Print(tree)
	errs := &source.ErrorList{}
	reparsed := parser.Parse(source.NewFile("printed.kr", printed), errs)
	if errs.HasErrors() {
		return &Failure{Source: src, Check: "print-reparse", Detail: "canonical rendering does not parse: " + errs.Error()}
	}
	if again := ast.Print(reparsed); again != printed {
		return &Failure{Source: src, Check: "print-fixpoint", Detail: "Print(Parse(Print(ast))) differs from Print(ast)"}
	}
	return nil
}

// CheckFault runs the fault-position metamorphic matrix on a program
// expected to fail at runtime. Every configuration — the default VM
// build (unchecked opcodes where proven safe), the -absint=off build
// (every check explicit), the tree-walking reference interpreter, and
// HCPA-instrumented profiling — must report the same error (message and
// source position) and produce the same output prefix. A divergence
// means an unchecked opcode skipped a check it needed, or the exact
// fallback re-executed a faulting block differently.
func CheckFault(name, src string, cfg OracleConfig) error {
	fail := func(check, format string, args ...interface{}) error {
		return &Failure{Source: src, Check: check, Detail: fmt.Sprintf(format, args...)}
	}
	prog, err := kremlin.Compile(name, src)
	if err != nil {
		return fail("fault-compile", "%v", err)
	}
	aprog, err := kremlin.CompileWith(name, src, kremlin.CompileOptions{DisableAbsint: true})
	if err != nil {
		return fail("fault-absint-off-compile", "%v", err)
	}
	run := func(out *strings.Builder) *kremlin.RunConfig {
		return &kremlin.RunConfig{Out: out, MaxSteps: cfg.maxSteps()}
	}

	var vmOut strings.Builder
	_, vmErr := prog.Run(run(&vmOut))
	if vmErr == nil {
		return fail("fault-expected", "program ran cleanly; CheckFault wants a runtime fault")
	}

	var offOut strings.Builder
	_, offErr := aprog.Run(run(&offOut))
	if offErr == nil || offErr.Error() != vmErr.Error() {
		return fail("fault-position-absint", "absint on/off report different errors:\n  on:  %v\n  off: %v", vmErr, offErr)
	}
	if offOut.String() != vmOut.String() {
		return fail("fault-output-absint", "output prefix differs with absint off:\n--- on ---\n%s--- off ---\n%s", vmOut.String(), offOut.String())
	}

	var treeOut strings.Builder
	tcfg := run(&treeOut)
	tcfg.Engine = kremlin.EngineTree
	_, treeErr := prog.Run(tcfg)
	if treeErr == nil || treeErr.Error() != vmErr.Error() {
		return fail("fault-position-engine", "VM and tree report different errors:\n  vm:   %v\n  tree: %v", vmErr, treeErr)
	}
	if treeOut.String() != vmOut.String() {
		return fail("fault-output-engine", "output prefix differs between engines:\n--- vm ---\n%s--- tree ---\n%s", vmOut.String(), treeOut.String())
	}

	var profOut strings.Builder
	_, _, profErr := prog.Profile(run(&profOut))
	if profErr == nil || profErr.Error() != vmErr.Error() {
		return fail("fault-position-hcpa", "plain and HCPA report different errors:\n  plain: %v\n  hcpa:  %v", vmErr, profErr)
	}
	if profOut.String() != vmOut.String() {
		return fail("fault-output-hcpa", "output prefix differs under HCPA instrumentation")
	}
	return nil
}

func profileBytes(p *profile.Profile) []byte {
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}
