// Command kremlin-bench regenerates every table and figure of the paper's
// evaluation (§4.4, §6) on the bundled benchmark suite and prints them in
// a form mirroring the paper's layout.
//
// Usage:
//
//	kremlin-bench [-experiment all|fig3|fig6|fig7|fig8|fig9|compression|overhead|spclass|sensitivity|scaling|vmspeed|vet|ablation|personality|fuzz|serve|scale|incfuzz]
//	              [-benches a,b,...] [-json out.json]
//	              [-fuzz-n 200] [-seed 1] [-fuzz-out dir]
//	              [-serve-conc 100,1000] [-serve-warm-conc 100,1000,10000]
//	              [-serve-jobs N] [-min-warm-speedup X]
//	              [-scale-lines 10000,50000,100000] [-scale-iters 60] [-min-scale-speedup X]
//	              [-cpuprofile f] [-memprofile f]
//
// -benches restricts the vmspeed experiment to a benchmark subset; -json
// writes the vmspeed, vet, fuzz, serve, scale or incfuzz results as a
// machine-readable artifact.
//
// The serve experiment load-tests the kremlin-serve daemon in-process
// over real HTTP: sustained QPS and p50/p99 latency at each -serve-conc
// concurrency level cold (caches off), plus warm repeat-traffic rows at
// each -serve-warm-conc level with the job, compile, and incremental
// caches on; high-concurrency rows ride an in-memory transport.
// -min-warm-speedup gates warm-vs-cold QPS at shared concurrencies;
// -json writes BENCH_serve.json. Like fuzz it only runs when named (it
// measures the service layer, not a paper table).
//
// The fuzz experiment runs a differential/metamorphic fuzzing campaign:
// -fuzz-n generated programs (seeds -seed .. -seed+n-1) through every
// pipeline configuration, reporting generator construct coverage and
// writing shrunk reproducers for any oracle failure to -fuzz-out. The
// fuzz experiment is excluded from -experiment all (it is a correctness
// campaign, not an evaluation table); exit status 1 if any check fails.
//
// The scale experiment measures incremental re-profiling: generated
// programs of -scale-lines source lines are profiled cold into a
// content-hash cache, one function is edited, and the warm re-profile is
// timed against a from-scratch run; -json writes BENCH_scale.json and
// -min-scale-speedup turns the geomean into a regression gate. The
// incfuzz experiment runs the incremental-vs-full oracle over -fuzz-n
// seeded (program, single-function-edit) pairs, writing reproducer pairs
// to -fuzz-out. Both run only when named.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"kremlin/internal/eval"
	"kremlin/internal/krfuzz"
)

var (
	benches        = flag.String("benches", "", "comma-separated benchmark subset for the vmspeed experiment (default: all)")
	jsonOut        = flag.String("json", "", "write the vmspeed, vet, fuzz, serve, scale or incfuzz results as JSON to this path")
	fuzzN          = flag.Int("fuzz-n", 200, "number of generated programs for the fuzz experiment")
	fuzzSeed       = flag.Int64("seed", 1, "base generator seed for the fuzz experiment")
	fuzzOut        = flag.String("fuzz-out", ".", "directory for shrunk fuzz reproducers")
	serveConc      = flag.String("serve-conc", "100,1000", "comma-separated cold concurrency levels for the serve experiment")
	serveWarmConc  = flag.String("serve-warm-conc", "100,1000,10000", "comma-separated warm (cached, repeat-traffic) concurrency levels (empty = none)")
	serveJobs      = flag.Int("serve-jobs", 0, "jobs per serve concurrency level (0 = 3x concurrency)")
	minWarmSpeedup = flag.Float64("min-warm-speedup", 0, "fail the serve experiment unless warm QPS >= this factor over cold at each shared concurrency (0 = no gate)")
	vmRepeats      = flag.Int("vm-repeats", 3, "best-of-N repeats per engine/mode for the vmspeed experiment")
	minVMSpeed     = flag.Float64("min-vm-speedup", 0, "fail the vmspeed experiment if the plain geomean VM speedup is below this (0 = no guard)")
	minAbsint      = flag.Float64("min-absint-speedup", 0, "fail the vmspeed experiment if the geomean speedup of the default build over -absint=off is below this (0 = no guard)")
	scaleLines     = flag.String("scale-lines", "10000,50000,100000", "comma-separated program sizes (source lines) for the scale experiment")
	scaleIters     = flag.Int("scale-iters", 60, "loop trip count per generated helper in the scale experiment")
	minScale       = flag.Float64("min-scale-speedup", 0, "fail the scale experiment if the geomean warm speedup is below this (0 = no guard)")
)

func main() {
	which := flag.String("experiment", "all", "experiment to run")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProf := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("fig3", fig3)
	run("fig6", fig6)
	run("fig7", fig7)
	run("fig8", fig8)
	run("fig9", fig9)
	run("compression", compression)
	run("overhead", overhead)
	run("spclass", spclass)
	run("sensitivity", sensitivity)
	run("scaling", scaling)
	run("vmspeed", vmspeed)
	run("vet", vet)
	run("ablation", ablation)
	run("personality", personality)
	// The fuzz campaign and the serve load test only run when asked for
	// by name: one is a correctness check, the other a service-layer
	// measurement — neither is a paper evaluation table.
	if *which == "fuzz" {
		if err := fuzz(); err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-bench: fuzz: %v\n", err)
			os.Exit(1)
		}
	}
	if *which == "serve" {
		if err := serveBench(); err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-bench: serve: %v\n", err)
			os.Exit(1)
		}
	}
	// Like fuzz and serve, the incremental-profiling experiments run only
	// when named: scale measures the cache subsystem, incfuzz is a
	// correctness campaign.
	if *which == "scale" {
		if err := scale(); err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-bench: scale: %v\n", err)
			os.Exit(1)
		}
	}
	if *which == "incfuzz" {
		if err := incfuzz(); err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-bench: incfuzz: %v\n", err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-bench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-bench:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

func header(s string) {
	fmt.Printf("\n==== %s ====\n", s)
}

func fig3() error {
	header("Figure 3: Kremlin's user interface (feature tracking)")
	s, err := eval.Fig3()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func fig6() error {
	header("Figure 6(a): plan size comparison (MANUAL vs Kremlin)")
	rows, err := eval.Fig6()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %8s %8s %10s\n", "bench", "MANUAL", "Kremlin", "Overlap", "Reduction")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %8d %8d %9.2fx\n", r.Name, r.ManualSize, r.KremlinSize, r.Overlap, r.SizeReduction)
	}
	m, k, o, red, rel := eval.Fig6Totals(rows)
	fmt.Printf("%-8s %8d %8d %8d %9.2fx\n", "Overall", m, k, o, red)

	header("Figure 6(b): speedup of Kremlin plan relative to MANUAL")
	fmt.Printf("%-8s %10s %10s %10s\n", "bench", "MANUAL", "Kremlin", "Relative")
	for _, r := range rows {
		fmt.Printf("%-8s %9.2fx %9.2fx %9.2fx\n", r.Name, r.ManualSpeedup, r.KremlinSpeedup, r.Relative)
	}
	fmt.Printf("geomean relative speedup: %.2fx\n", rel)
	return nil
}

func fig7() error {
	header("Figure 7: marginal benefit of applying plan entries in order")
	series, err := eval.Fig7()
	if err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("%-8s", s.Name)
		for i, v := range s.Reduction {
			if i == s.CutIndex {
				fmt.Printf(" |") // the paper's dotted line: MANUAL-only regions follow
			}
			fmt.Printf(" %5.1f", v)
		}
		fmt.Println()
	}
	fmt.Println("(cumulative % execution-time reduction; entries right of '|' are MANUAL-only)")
	return nil
}

func fig8() error {
	header("Figure 8: benefit by plan fraction (25% increments)")
	rows, avg, marginal, err := eval.Fig8()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %8s %8s %8s\n", "bench", "25%", "50%", "75%", "100%")
	for _, r := range rows {
		fmt.Printf("%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", r.Name,
			r.Fraction[0], r.Fraction[1], r.Fraction[2], r.Fraction[3])
	}
	fmt.Printf("%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "average", avg[0], avg[1], avg[2], avg[3])
	fmt.Printf("%-8s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", "marginal", marginal[0], marginal[1], marginal[2], marginal[3])
	return nil
}

func fig9() error {
	header("Figure 9: plan size reduction due to each planning component")
	rows, avg, err := eval.Fig9()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %10s %10s %10s\n", "bench", "regions", "work", "work+SP", "full")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %9.1f%% %9.1f%% %9.1f%%\n", r.Name, r.Total, r.WorkPct, r.WorkSPPct, r.FullPct)
	}
	fmt.Printf("%-8s %8s %9.1f%% %9.1f%% %9.1f%%\n", "average", "", avg[0], avg[1], avg[2])
	return nil
}

func compression() error {
	header("§4.4: dictionary compression of the parallelism profile")
	rows, avgRatio, err := eval.Compression()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %12s %10s\n", "bench", "dyn.regions", "raw bytes", "compressed", "ratio")
	for _, r := range rows {
		fmt.Printf("%-8s %12d %12d %12d %9.0fx\n", r.Name, r.RawRecords, r.RawBytes, r.Compressed, r.Ratio)
	}
	fmt.Printf("average compression ratio: %.0fx (grows with run length; the paper's W inputs gave ~119,000x)\n", avgRatio)
	return nil
}

func overhead() error {
	header("§4.4: instrumentation overhead (plain vs gprof-style vs HCPA)")
	rows, err := eval.Overhead()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %12s %10s %10s\n", "bench", "plain", "gprof", "hcpa", "hcpa/plain", "hcpa/gprof")
	for _, r := range rows {
		fmt.Printf("%-8s %12v %12v %12v %9.1fx %9.1fx\n", r.Name, r.Plain, r.Gprof, r.HCPA, r.HCPASlowdown, r.VsGprof)
	}
	return nil
}

func spclass() error {
	header("§6.2: low-parallelism classification, self-P vs total-P (threshold 5.0)")
	selfLow, totalLow, n, err := eval.SPClassification(5.0)
	if err != nil {
		return err
	}
	ratio := 0.0
	if totalLow > 0 {
		ratio = selfLow / totalLow
	}
	fmt.Printf("regions: %d\n", n)
	fmt.Printf("low parallelism by total-parallelism: %5.1f%%\n", 100*totalLow)
	fmt.Printf("low parallelism by self-parallelism:  %5.1f%%\n", 100*selfLow)
	fmt.Printf("false-positive reduction: %.2fx (paper: 2.28x)\n", ratio)
	return nil
}

func sensitivity() error {
	header("§6.1: input sensitivity (train plan reused on ref input)")
	rows, err := eval.InputSensitivity()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %12s %12s\n", "bench", "plan", "train spd", "ref spd")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %11.2fx %11.2fx\n", r.Name, r.PlanSize, r.TrainSpeedup, r.RefSpeedup)
	}
	return nil
}

func ablation() error {
	header("Ablation: induction/reduction dependence breaking (§2.4, §4.1)")
	rows, err := eval.DependenceBreakingAblation()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %10s %12s %12s\n", "bench", "SP collapses", "maxSPdrop", "plan(with)", "plan(w/o)")
	for _, r := range rows {
		fmt.Printf("%-8s %12d %9.1fx %12d %12d\n", r.Name, r.LoopsCollapsed, r.MaxSPDrop, r.PlanWith, r.PlanWithout)
	}

	header("Ablation: planning on compressed vs expanded traces (§4.4)")
	crows, err := eval.CompressedPlanningAblation()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %12s %14s %14s %10s\n", "bench", "alphabet", "dyn.regions", "compressed", "expanded", "speedup")
	for _, r := range crows {
		fmt.Printf("%-8s %10d %12d %14v %14v %9.1fx\n",
			r.Name, r.DictEntries, r.DynamicRegions, r.CompressedTime, r.ExpandedTime, r.Speedup)
	}
	return nil
}

func personality() error {
	header("§5.2: OpenMP vs Cilk++ planner personalities")
	rows, err := eval.PersonalityComparison()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %10s %12s %12s\n", "bench", "omp plan", "cilk plan", "omp speedup", "cilk speedup")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %10d %11.2fx %11.2fx\n", r.Name, r.OpenMPSize, r.CilkSize, r.OpenMPSpeed, r.CilkSpeed)
	}

	header("§5.3: portability-accuracy matrix (plan personality x machine)")
	cells, err := eval.PortabilityMatrix()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %14s\n", "plan", "numa32", "finegrained")
	for _, plan := range []string{"openmp", "cilk"} {
		fmt.Printf("%-8s", plan)
		for _, m := range []string{"numa32", "finegrained"} {
			for _, c := range cells {
				if c.Plan == plan && c.Machine == m {
					fmt.Printf(" %13.2fx", c.Geomean)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println("(geomean best-config speedup across the suite)")
	return nil
}

func vmspeed() error {
	header("Bytecode VM vs tree-walking interpreter: wall-clock per engine")
	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	sum, err := eval.VMSpeed(names, *vmRepeats)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %10s %9s %10s %10s %9s %10s %9s %6s\n",
		"bench", "plain-vm", "plain-tree", "speedup", "hcpa-vm", "hcpa-tree", "speedup", "checked", "absint", "equal")
	for _, r := range sum.Rows {
		eq := r.OutputEqual && r.CountersEqual && r.ProfileEqual && r.PlanEqual
		fmt.Printf("%-8s %10v %10v %8.2fx %10v %10v %8.2fx %10v %8.2fx %6t\n",
			r.Name, r.PlainVM.Round(10_000), r.PlainTree.Round(10_000), r.PlainSpeedup,
			r.HCPAVM.Round(10_000), r.HCPATree.Round(10_000), r.HCPASpeedup,
			r.PlainChecked.Round(10_000), r.AbsintSpeedup, eq)
	}
	fmt.Printf("geomean: plain %.2fx, hcpa %.2fx, absint (unchecked vs checked) %.2fx; engines equivalent on every row: %t\n",
		sum.PlainGeomean, sum.HCPAGeomean, sum.AbsintGeomean, sum.AllEqual)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if !sum.AllEqual {
		return fmt.Errorf("engine equivalence violated (see table)")
	}
	if *minVMSpeed > 0 && sum.PlainGeomean < *minVMSpeed {
		return fmt.Errorf("plain geomean speedup %.2fx below the %.2fx guard", sum.PlainGeomean, *minVMSpeed)
	}
	if *minAbsint > 0 && sum.AbsintGeomean < *minAbsint {
		return fmt.Errorf("absint geomean speedup %.2fx below the %.2fx guard — the unchecked build lost to its own checked baseline", sum.AbsintGeomean, *minAbsint)
	}
	return nil
}

func vet() error {
	header("Static loop-dependence analysis: verdict per loop (kremlin vet)")
	// The standalone example programs (the others reuse bench sources).
	extra := make(map[string]string)
	for name, path := range map[string]string{
		"quickstart":   "examples/quickstart/quickstart.kr",
		"gprofcompare": "examples/gprofcompare/compare.kr",
	} {
		if src, err := os.ReadFile(path); err == nil {
			extra[name] = string(src)
		}
	}
	rows, err := eval.Vet(extra)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %6s %9s %7s %8s\n", "program", "loops", "parallel", "serial", "unknown")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %9d %7d %8d\n", r.Name, r.Loops, r.Parallel, r.Serial, r.Unknown)
	}
	sum := eval.Summarize(rows)
	fmt.Printf("%-12s %6d %9d %7d %8d\n", "total", sum.Loops, sum.Parallel, sum.Serial, sum.Unknown)
	fmt.Println("\nnon-parallel loops and why:")
	for _, r := range rows {
		for _, l := range r.Reports {
			if l.Verdict == "parallel" {
				continue
			}
			fmt.Printf("  %-44s %-8s %s\n", l.Label, l.Verdict, l.Detail)
		}
	}
	fmt.Printf("\ntracked metric: unknown_verdicts = %d (budget < %d)\n", sum.Unknown, sum.UnknownBudget)
	if !sum.WithinBudget {
		return fmt.Errorf("vet: %d unknown verdicts, budget is < %d — the analyzer regressed", sum.Unknown, sum.UnknownBudget)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(struct {
			Summary eval.VetSummary `json:"summary"`
			Rows    []eval.VetRow   `json:"rows"`
		}{sum, rows}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

func fuzz() error {
	header(fmt.Sprintf("Fuzzing campaign: %d programs, seeds %d..%d, differential & metamorphic oracle",
		*fuzzN, *fuzzSeed, *fuzzSeed+int64(*fuzzN)-1))
	if err := os.MkdirAll(*fuzzOut, 0o755); err != nil {
		return err
	}
	lastTick := 0
	res, err := krfuzz.RunCampaign(krfuzz.CampaignConfig{
		N:      *fuzzN,
		Seed:   *fuzzSeed,
		OutDir: *fuzzOut,
		Progress: func(done, failed int) {
			// One status line per ~10% so long campaigns show life.
			if step := *fuzzN / 10; step > 0 && done/step > lastTick {
				lastTick = done / step
				fmt.Printf("  checked %d/%d (%d failing)\n", done, *fuzzN, failed)
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("\npassed %d / %d programs\n", res.Passed, res.N)
	fmt.Println("\ngenerator construct coverage (occurrences across the campaign):")
	// Deterministic order: sort the construct names.
	names := make([]string, 0, len(res.Coverage))
	for name := range res.Coverage {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-14s %6d\n", name, res.Coverage[name])
	}
	if len(res.Missing) > 0 {
		fmt.Printf("constructs never generated: %s\n", strings.Join(res.Missing, ", "))
	} else {
		fmt.Println("all constructs covered.")
	}

	for _, f := range res.Failures {
		fmt.Printf("\nFAIL seed %d: check %q: %s\n", f.Seed, f.Check, f.Detail)
		fmt.Printf("  reproducer (%d bytes, shrunk from %d): %s\n", f.ReproLen, f.OrigLen, f.Path)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d programs failed the oracle", res.Failed, res.N)
	}
	return nil
}

func serveBench() error {
	header("kremlin-serve under load: sustained QPS and latency percentiles")
	parseConcs := func(flagName, spec string) ([]int, error) {
		var concs []int
		if strings.TrimSpace(spec) == "" {
			return nil, nil
		}
		for _, s := range strings.Split(spec, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || c < 1 {
				return nil, fmt.Errorf("bad %s entry %q", flagName, s)
			}
			concs = append(concs, c)
		}
		return concs, nil
	}
	concs, err := parseConcs("-serve-conc", *serveConc)
	if err != nil {
		return err
	}
	warmConcs, err := parseConcs("-serve-warm-conc", *serveWarmConc)
	if err != nil {
		return err
	}
	rows, err := eval.ServeBench(concs, *serveJobs)
	if err != nil {
		return err
	}
	warmRows, err := eval.ServeBenchWarm(warmConcs, *serveJobs)
	if err != nil {
		return err
	}
	rows = append(rows, warmRows...)
	fmt.Printf("%-6s %-7s %-6s %8s %8s %10s %10s %10s %10s %6s %7s\n",
		"scen", "transp", "conc", "jobs", "workers", "QPS", "p50(ms)", "p99(ms)", "max(ms)", "ok", "errors")
	for _, r := range rows {
		fmt.Printf("%-6s %-7s %-6d %8d %8d %10.1f %10.2f %10.2f %10.2f %6d %7d\n",
			r.Scenario, r.Transport, r.Concurrency, r.Jobs, r.Workers, r.QPS, r.P50Ms, r.P99Ms, r.MaxMs, r.OK, r.Errors)
	}
	fmt.Printf("(GOMAXPROCS=%d; in-process daemon; cold = caches off over TCP loopback,\n", runtime.GOMAXPROCS(0))
	fmt.Println(" warm = job+compile+inccache on, primed, repeat traffic; high-concurrency")
	fmt.Println(" rows use an in-memory net.Pipe transport to dodge fd limits)")
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	// Regression gate: warm repeat traffic must beat cold by the given
	// factor at every concurrency measured both ways.
	if *minWarmSpeedup > 0 {
		coldQPS := map[int]float64{}
		for _, r := range rows {
			if r.Scenario == "cold" {
				coldQPS[r.Concurrency] = r.QPS
			}
		}
		compared := 0
		for _, r := range rows {
			if r.Scenario != "warm" {
				continue
			}
			cold, okc := coldQPS[r.Concurrency]
			if !okc || cold <= 0 {
				continue
			}
			compared++
			speedup := r.QPS / cold
			fmt.Printf("warm speedup at conc %d: %.1fx (gate %.1fx)\n",
				r.Concurrency, speedup, *minWarmSpeedup)
			if speedup < *minWarmSpeedup {
				return fmt.Errorf("warm QPS at conc %d is %.1f, only %.2fx cold (%.1f); gate is %.1fx",
					r.Concurrency, r.QPS, speedup, cold, *minWarmSpeedup)
			}
		}
		if compared == 0 {
			return fmt.Errorf("-min-warm-speedup set but no concurrency was measured both cold and warm")
		}
	}
	return nil
}

func scale() error {
	header("Incremental re-profiling at scale: cold vs warm after a one-function edit")
	var sizes []int
	for _, s := range strings.Split(*scaleLines, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -scale-lines entry %q", s)
		}
		sizes = append(sizes, n)
	}
	sum, err := eval.Scale(sizes, *fuzzSeed, *scaleIters)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %7s %10s %10s %9s %9s %11s %9s %9s %6s\n",
		"lines", "funcs", "cold", "warm", "speedup", "hit-rate", "step-spd", "coldMB", "warmMB", "equal")
	for _, r := range sum.Rows {
		fmt.Printf("%-8d %7d %10v %10v %8.2fx %8.2f%% %10.1fx %9.1f %9.1f %6t\n",
			r.Lines, r.Funcs, r.ColdNS.Round(time.Millisecond), r.WarmNS.Round(time.Millisecond),
			r.Speedup, 100*r.HitRate, r.StepSpeedup, r.ColdHeapMB, r.WarmHeapMB, r.ProfileEqual)
	}
	fmt.Printf("geomean warm speedup: %.2fx; warm profile byte-identical on every row: %t\n",
		sum.GeomeanSpeedup, sum.AllEqual)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if !sum.AllEqual {
		return fmt.Errorf("warm profile diverged from the from-scratch one (see table)")
	}
	if *minScale > 0 && sum.GeomeanSpeedup < *minScale {
		return fmt.Errorf("geomean warm speedup %.2fx below the %.2fx guard", sum.GeomeanSpeedup, *minScale)
	}
	return nil
}

func incfuzz() error {
	header(fmt.Sprintf("Incremental-oracle campaign: %d (program, one-function-edit) pairs, seeds %d..%d",
		*fuzzN, *fuzzSeed, *fuzzSeed+int64(*fuzzN)-1))
	if err := os.MkdirAll(*fuzzOut, 0o755); err != nil {
		return err
	}
	lastTick := 0
	res, err := krfuzz.RunIncrementalCampaign(krfuzz.CampaignConfig{
		N:      *fuzzN,
		Seed:   *fuzzSeed,
		OutDir: *fuzzOut,
		Progress: func(done, failed int) {
			if step := *fuzzN / 10; step > 0 && done/step > lastTick {
				lastTick = done / step
				fmt.Printf("  checked %d/%d (%d failing)\n", done, *fuzzN, failed)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("\npassed %d / %d edit pairs\n", res.Passed, res.N)
	fmt.Println("edit-pattern coverage:")
	names := make([]string, 0, len(res.Kinds))
	for name := range res.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-14s %6d\n", name, res.Kinds[name])
	}
	for _, f := range res.Failures {
		fmt.Printf("\nFAIL seed %d: %s of %s, check %q: %s\n  reproducer: %s\n",
			f.Seed, f.Kind, f.Target, f.Check, f.Detail, f.Path)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d edit pairs failed the incremental oracle", res.Failed, res.N)
	}
	return nil
}

func scaling() error {
	header("Figure 6(b) annotation: absolute speedup scaling (Kremlin plan, 1-32 cores)")
	rows, err := eval.Scaling()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %7s %7s %7s %7s %7s %7s %9s\n", "bench", "1", "2", "4", "8", "16", "32", "best")
	for _, r := range rows {
		fmt.Printf("%-8s", r.Name)
		for _, v := range r.Speedups {
			fmt.Printf(" %6.2fx", v)
		}
		fmt.Printf(" %8.2fx\n", r.Best)
	}
	return nil
}
