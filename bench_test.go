package kremlin_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (run `go test -bench=. -benchmem`). Each benchmark regenerates
// its experiment through internal/eval and reports the headline numbers as
// custom metrics, so `go test -bench` output doubles as the reproduction
// record; EXPERIMENTS.md is produced from the same data via
// cmd/kremlin-bench.

import (
	"fmt"
	"testing"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/eval"
	"kremlin/internal/exec"
	"kremlin/internal/interp"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

// BenchmarkFig3TrackingPlan regenerates Figure 3: the ranked plan for the
// feature-tracking benchmark.
func BenchmarkFig3TrackingPlan(b *testing.B) {
	c, err := bench.Load(bench.Tracking())
	if err != nil {
		b.Fatal(err)
	}
	var planLen int
	for i := 0; i < b.N; i++ {
		plan := c.Program.Plan(c.Profile, planner.OpenMP())
		planLen = len(plan.Recs)
	}
	b.ReportMetric(float64(planLen), "plan-regions")
}

// BenchmarkFig5SelfParallelism measures the self-parallelism computation
// over a full benchmark profile (the per-character SP of §4.3/Figure 5).
func BenchmarkFig5SelfParallelism(b *testing.B) {
	c, err := bench.Load(bench.ByName("cg"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Program.Summarize(c.Profile)
	}
}

// BenchmarkFig6aPlanSize regenerates Figure 6(a): plan sizes, MANUAL vs
// Kremlin, across the whole suite.
func BenchmarkFig6aPlanSize(b *testing.B) {
	var manual, kremlin int
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		manual, kremlin, _, reduction, _ = totals(rows)
	}
	b.ReportMetric(float64(manual), "manual-regions")
	b.ReportMetric(float64(kremlin), "kremlin-regions")
	b.ReportMetric(reduction, "size-reduction-x")
}

func totals(rows []eval.Fig6Row) (int, int, int, float64, float64) {
	return eval.Fig6Totals(rows)
}

// BenchmarkFig6bSpeedup regenerates Figure 6(b): simulated speedup of the
// Kremlin plan relative to MANUAL.
func BenchmarkFig6bSpeedup(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		_, _, _, _, geo = eval.Fig6Totals(rows)
	}
	b.ReportMetric(geo, "geomean-relative-x")
}

// BenchmarkFig7MarginalBenefit regenerates Figure 7's marginal-benefit
// curves.
func BenchmarkFig7MarginalBenefit(b *testing.B) {
	var series int
	for i := 0; i < b.N; i++ {
		s, err := eval.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		series = len(s)
	}
	b.ReportMetric(float64(series), "benchmarks")
}

// BenchmarkFig8PlanFractions regenerates Figure 8: benefit per plan
// quarter.
func BenchmarkFig8PlanFractions(b *testing.B) {
	var first float64
	for i := 0; i < b.N; i++ {
		_, avg, _, err := eval.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		first = avg[0]
	}
	b.ReportMetric(first, "first-quarter-benefit-%")
}

// BenchmarkFig9PlanSizeReduction regenerates Figure 9: plan size under
// work-only / +self-parallelism / full-planner configurations.
func BenchmarkFig9PlanSizeReduction(b *testing.B) {
	var avg [3]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, err = eval.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avg[0], "work-only-%")
	b.ReportMetric(avg[1], "work+sp-%")
	b.ReportMetric(avg[2], "full-planner-%")
}

// BenchmarkCompressionRatio regenerates the §4.4 trace-compression table.
func BenchmarkCompressionRatio(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, avg, err := eval.Compression()
		if err != nil {
			b.Fatal(err)
		}
		ratio = avg
	}
	b.ReportMetric(ratio, "avg-compression-x")
}

// BenchmarkInstrumentationOverhead regenerates the §4.4 overhead
// comparison (plain vs gprof-style vs HCPA execution).
func BenchmarkInstrumentationOverhead(b *testing.B) {
	var vsGprof float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.VsGprof
		}
		vsGprof = sum / float64(len(rows))
	}
	b.ReportMetric(vsGprof, "hcpa-vs-gprof-x")
}

// BenchmarkSPClassification regenerates the §6.2 low-parallelism
// classification comparison (self-P vs total-P at threshold 5.0).
func BenchmarkSPClassification(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		selfLow, totalLow, _, err := eval.SPClassification(5.0)
		if err != nil {
			b.Fatal(err)
		}
		factor = selfLow / totalLow
	}
	b.ReportMetric(factor, "false-positive-reduction-x")
}

// BenchmarkInputSensitivity regenerates §6.1's train-plan-on-ref-input
// check for the SPEC benchmarks.
func BenchmarkInputSensitivity(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.InputSensitivity()
		if err != nil {
			b.Fatal(err)
		}
		worst = 10
		for _, r := range rows {
			if v := r.RefSpeedup / r.TrainSpeedup; v < worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-ref/train-x")
}

// BenchmarkAblationDependenceBreaking regenerates the §2.4 ablation.
func BenchmarkAblationDependenceBreaking(b *testing.B) {
	var collapsed int
	for i := 0; i < b.N; i++ {
		rows, err := eval.DependenceBreakingAblation()
		if err != nil {
			b.Fatal(err)
		}
		collapsed = 0
		for _, r := range rows {
			collapsed += r.LoopsCollapsed
		}
	}
	b.ReportMetric(float64(collapsed), "sp-collapses")
}

// BenchmarkAblationCompressedPlanning regenerates the §4.4
// plan-on-compressed-data ablation.
func BenchmarkAblationCompressedPlanning(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.CompressedPlanningAblation()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Speedup
		}
		speedup = sum / float64(len(rows))
	}
	b.ReportMetric(speedup, "planning-speedup-x")
}

// --- microbenchmarks of the core machinery ---

// BenchmarkHCPAProfiling measures instrumented execution throughput on one
// benchmark (the cost every experiment pays).
func BenchmarkHCPAProfiling(b *testing.B) {
	bm := bench.ByName("cg")
	prog, err := kremlin.Compile("cg.kr", bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prog.Profile(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlainInterpretation measures uninstrumented execution.
func BenchmarkPlainInterpretation(b *testing.B) {
	bm := bench.ByName("cg")
	prog, err := kremlin.Compile("cg.kr", bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipeline measures the full front end (parse, check,
// lower, SSA, analyses, region extraction) on the largest source.
func BenchmarkCompilePipeline(b *testing.B) {
	bm := bench.ByName("bt")
	for i := 0; i < b.N; i++ {
		if _, err := kremlin.Compile("bt.kr", bm.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictIntern measures the on-line compression hot path.
func BenchmarkDictIntern(b *testing.B) {
	d := profile.NewDict()
	kids := map[int32]int64{}
	for i := 0; i < b.N; i++ {
		c := d.Intern(int32(i%64), uint64(i%1000), uint64(i%100)+1, kids)
		if i%7 == 0 {
			kids = map[int32]int64{c: int64(i%3) + 1}
		}
	}
}

// BenchmarkSimulate measures one plan simulation over a full profile.
func BenchmarkSimulate(b *testing.B) {
	c, err := bench.Load(bench.ByName("sp"))
	if err != nil {
		b.Fatal(err)
	}
	plan := c.Program.Plan(c.Profile, planner.OpenMP())
	ids := map[int]bool{}
	for _, r := range plan.Recs {
		ids[r.Stats.Region.ID] = true
	}
	m := exec.Default32()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Simulate(c.Summary, ids, m)
	}
}

// BenchmarkProfileSerialization measures profile write+read round trips.
func BenchmarkProfileSerialization(b *testing.B) {
	c, err := bench.Load(bench.ByName("mg"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Profile.MarshalSize()
	}
}

// --- engine dispatch microbenchmarks (tree-walker vs bytecode VM) ---

// dispatchProg is a tight arithmetic/array kernel: ~1.5M interpreter
// steps dominated by the per-instruction dispatch cost being measured.
const dispatchProg = `
int a[256];
void main() {
	for (int i = 0; i < 256; i++) { a[i] = i; }
	int s = 0;
	for (int r = 0; r < 2000; r++) {
		for (int i = 1; i < 256; i++) {
			s = s + a[i] * 3 - a[i-1] % 7;
		}
	}
	print(s);
}`

func benchDispatch(b *testing.B, eng kremlin.Engine, hcpa bool) {
	prog, err := kremlin.Compile("dispatch.kr", dispatchProg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &kremlin.RunConfig{Engine: eng}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *interp.Result
		if hcpa {
			_, res, err = prog.Profile(cfg)
		} else {
			res, err = prog.Run(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
}

// BenchmarkDispatchPlain compares raw per-instruction dispatch cost:
// the tree-walker's IR pointer-chasing vs the VM's flat bytecode loop.
func BenchmarkDispatchPlain(b *testing.B) {
	b.Run("vm", func(b *testing.B) { benchDispatch(b, kremlin.EngineVM, false) })
	b.Run("tree", func(b *testing.B) { benchDispatch(b, kremlin.EngineTree, false) })
}

// BenchmarkDispatchHCPA compares instrumented dispatch: the tree-walker's
// per-instruction kremlib.Step calls vs the VM's block-batched StepBlock.
func BenchmarkDispatchHCPA(b *testing.B) {
	b.Run("vm", func(b *testing.B) { benchDispatch(b, kremlin.EngineVM, true) })
	b.Run("tree", func(b *testing.B) { benchDispatch(b, kremlin.EngineTree, true) })
}

// TestVMHotPathAllocs proves the VM dispatch loop allocates nothing per
// step: total allocations for a run must not grow with the step count
// (fixed setup allocations — machine, globals, register file — are the
// same for both programs; only the loop trip count differs). Under -race
// the program's one print may allocate two more objects per run: it
// formats through fmt.Sprintf, whose printer comes from a sync.Pool, and
// the race detector makes the pool drop a random quarter of its items.
func TestVMHotPathAllocs(t *testing.T) {
	mk := func(iters int) *kremlin.Program {
		src := fmt.Sprintf(`
int a[256];
void main() {
	for (int i = 0; i < 256; i++) { a[i] = i; }
	int s = 0;
	for (int r = 0; r < %d; r++) {
		for (int i = 1; i < 256; i++) {
			s = s + a[i] * 3 - a[i-1] %% 7;
		}
	}
	print(s);
}`, iters)
		prog, err := kremlin.Compile("allocs.kr", src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	measure := func(p *kremlin.Program) float64 {
		if _, err := p.Run(nil); err != nil { // warm the bytecode cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Run(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(mk(10))
	big := measure(mk(2000)) // ~200× the steps
	slack := 0.5
	if raceEnabled {
		slack += 2
	}
	if big > small+slack {
		t.Errorf("VM allocations scale with steps: %v allocs at 10 iters, %v at 2000", small, big)
	}
}

// BenchmarkScalingSweep regenerates the Figure-6(b) absolute-speedup
// scaling data (1-32 cores under the Kremlin plan).
func BenchmarkScalingSweep(b *testing.B) {
	var worst, best float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Scaling()
		if err != nil {
			b.Fatal(err)
		}
		worst, best = 1e9, 0
		for _, r := range rows {
			if r.Best < worst {
				worst = r.Best
			}
			if r.Best > best {
				best = r.Best
			}
		}
	}
	b.ReportMetric(worst, "min-best-speedup-x")
	b.ReportMetric(best, "max-best-speedup-x")
}
