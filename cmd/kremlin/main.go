// Command kremlin is the planner front end of Figure 3: given a program
// and its parallelism profile, it prints the ordered parallelism plan for
// the chosen planner personality.
//
// Usage:
//
//	kremlin [-personality=openmp|cilk|work-only|work+sp] [-profile prog.krpf]
//	        [-exclude label,label,...] [-require-safe] prog.kr
//	kremlin vet [-json] prog.kr
//	kremlin lint [-json] prog.kr
//
// Without -profile, the program is profiled on the fly. -exclude removes
// regions the user is unable or unwilling to parallelize and replans (the
// paper's exclusion-list workflow). Labels are as printed by -labels.
// -require-safe drops regions whose parallelization the static
// loop-dependence analysis refuted.
//
// The vet subcommand skips profiling entirely and prints the static
// loop-dependence verdict for every loop: provably parallel, provably
// serial (with the offending dependences), or unknown (with what blocked
// the proof).
//
// The lint subcommand prints the abstract interpreter's findings —
// definite faults (out-of-bounds index, division by zero, non-positive
// allocation extent), possible index-arithmetic overflow, unreachable
// code, and dead stores — one file:line:col diagnostic per finding, and
// exits 7 when anything was reported (0 when clean). With -json, vet and
// lint emit one JSON object per line instead of the rendered text.
//
// -absint=off disables consumption of the interval analysis by the
// bytecode compiler (all bounds checks stay explicit); profiles, plans,
// and program output are byte-identical either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"kremlin"
	"kremlin/internal/depcheck"
	"kremlin/internal/inccache"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

// fail reports err and exits with its taxonomy code (3 parse, 4 analysis,
// 5 runtime, 6 limit, 7 lint, 1 other — see kremlin.ExitCodeFor).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kremlin:", err)
	os.Exit(kremlin.ExitCodeFor(err))
}

func main() {
	pers := flag.String("personality", "openmp", "planner personality: openmp, cilk, work-only, work+sp")
	profPath := flag.String("profile", "", "profile file from kremlin-run (default: profile on the fly)")
	exclude := flag.String("exclude", "", "comma-separated region labels to exclude")
	labels := flag.Bool("labels", false, "print region labels usable with -exclude")
	requireSafe := flag.Bool("require-safe", false, "drop regions whose parallelization the static dependence analysis refuted")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for on-the-fly profiling (0 = none); overrun exits 6")
	maxInsns := flag.Uint64("max-insns", 0, "instruction budget for on-the-fly profiling (0 = default); overrun exits 6")
	engine := flag.String("engine", "vm", "execution engine: vm (block-batched bytecode) or tree (reference interpreter)")
	cacheDir := flag.String("cache-dir", "", "incremental profile cache directory (on-the-fly profiling only)")
	cacheStats := flag.Bool("cache-stats", false, "print incremental-cache statistics to stderr after profiling")
	jsonOut := flag.Bool("json", false, "vet/lint: emit one JSON object per loop/finding instead of text")
	absintMode := flag.String("absint", "on", "interval analysis feeding the bytecode compiler: on or off")
	// Subcommands come first (`kremlin vet -json prog.kr`), so lift them
	// out before flag parsing; the historical flags-first spelling
	// (`kremlin -json vet prog.kr`) keeps working through Arg(0) below.
	mode := ""
	argv := os.Args[1:]
	if len(argv) > 0 && (argv[0] == "vet" || argv[0] == "lint") {
		mode = argv[0]
		argv = argv[1:]
	}
	_ = flag.CommandLine.Parse(argv)
	eng, err := kremlin.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kremlin: %v\n", err)
		os.Exit(2)
	}
	if *absintMode != "on" && *absintMode != "off" {
		fmt.Fprintf(os.Stderr, "kremlin: -absint must be on or off (got %q)\n", *absintMode)
		os.Exit(2)
	}
	if mode == "" && flag.NArg() == 2 {
		if a := flag.Arg(0); a == "vet" || a == "lint" {
			mode = a
		}
	}
	vet := mode == "vet"
	lint := mode == "lint"
	okArgs := flag.NArg() == 1 || (flag.NArg() == 2 && flag.Arg(0) == mode)
	if !okArgs {
		fmt.Fprintln(os.Stderr, "usage: kremlin [-personality=p] [-profile f.krpf] [-exclude a,b] [-require-safe] prog.kr")
		fmt.Fprintln(os.Stderr, "       kremlin vet [-json] prog.kr")
		fmt.Fprintln(os.Stderr, "       kremlin lint [-json] prog.kr")
		os.Exit(2)
	}
	path := flag.Arg(flag.NArg() - 1)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kremlin:", err)
		os.Exit(1)
	}
	prog, err := kremlin.CompileWith(path, string(src), kremlin.CompileOptions{
		DisableAbsint: *absintMode == "off",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(kremlin.ExitCodeFor(err))
	}

	if vet {
		printVet(prog.Vet, *jsonOut)
		return
	}
	if lint {
		os.Exit(printLint(prog, *jsonOut))
	}

	var prof *profile.Profile
	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			fail(err)
		}
		prof, err = profile.ReadFrom(f)
		f.Close()
		if err == nil {
			err = prog.CheckProfile(prof)
		}
		if err != nil {
			fail(err)
		}
	} else {
		// On-the-fly profiling honors the same deadline/budget plumbing
		// as kremlin-run and the serve daemon.
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		cfg := &kremlin.RunConfig{Ctx: ctx, MaxSteps: *maxInsns, Engine: eng}
		var stats inccache.Stats
		if *cacheDir != "" {
			st, err := inccache.Open(*cacheDir)
			if err != nil {
				fail(err)
			}
			cfg.Cache = st
			cfg.CacheStats = &stats
		}
		if prof, _, err = prog.Profile(cfg); err != nil {
			fail(err)
		}
		if cfg.Cache != nil && *cacheStats {
			fmt.Fprintf(os.Stderr, "kremlin: cache %s: %d/%d hits (%.1f%%), %d recorded, %d steps skipped, %d corrupt repaired\n",
				*cacheDir, stats.Hits, stats.Lookups, 100*stats.HitRate(),
				stats.Recorded, stats.SkippedSteps, stats.Corrupt)
		}
	}

	if *labels {
		sum := prog.Summarize(prof)
		for _, st := range sum.Executed {
			fmt.Printf("%-40s SP=%8.1f cov=%6.2f%%\n", st.Region.Label(), st.SelfP, 100*st.Coverage)
		}
		return
	}

	var p planner.Personality
	switch *pers {
	case "openmp":
		p = planner.OpenMP()
	case "cilk":
		p = planner.Cilk()
	case "work-only":
		p = planner.WorkOnly()
	case "work+sp":
		p = planner.WorkSP()
	default:
		fmt.Fprintf(os.Stderr, "kremlin: unknown personality %q\n", *pers)
		os.Exit(2)
	}

	var opts []planner.Option
	if *exclude != "" {
		opts = append(opts, planner.Exclude(strings.Split(*exclude, ",")...))
	}
	if *requireSafe {
		opts = append(opts, planner.RequireSafe())
	}
	plan := planner.Make(prog.Summarize(prof), p, opts...)
	fmt.Print(plan.Render())
}

// printVet renders the static loop-dependence report in region-ID order.
// With asJSON it emits one object per loop followed by a summary object,
// so CI and serve can consume verdicts without scraping the table.
func printVet(res *depcheck.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		type loopJSON struct {
			Label    string   `json:"label"`
			Verdict  string   `json:"verdict"`
			Causes   []string `json:"causes,omitempty"`
			Blockers []string `json:"blockers,omitempty"`
		}
		for _, rep := range res.Loops {
			lj := loopJSON{Label: rep.Region.Label(), Verdict: rep.Verdict.String()}
			for _, c := range rep.Causes {
				lj.Causes = append(lj.Causes, c.String())
			}
			for _, c := range rep.Blockers {
				lj.Blockers = append(lj.Blockers, c.String())
			}
			_ = enc.Encode(lj)
		}
		par, ser, unk := res.Counts()
		_ = enc.Encode(struct {
			Loops    int `json:"loops"`
			Parallel int `json:"parallel"`
			Serial   int `json:"serial"`
			Unknown  int `json:"unknown"`
		}{len(res.Loops), par, ser, unk})
		return
	}
	for _, rep := range res.Loops {
		fmt.Printf("%-44s %s\n", rep.Region.Label(), rep.Verdict)
		for _, c := range rep.Causes {
			fmt.Printf("    dependence  %s\n", c)
		}
		for _, c := range rep.Blockers {
			fmt.Printf("    blocker     %s\n", c)
		}
	}
	par, ser, unk := res.Counts()
	fmt.Printf("%d loops: %d provably parallel, %d provably serial, %d unknown\n",
		len(res.Loops), par, ser, unk)
}

// printLint renders the abstract-interpretation findings and returns the
// process exit code: ExitLint when anything was reported, 0 when clean.
func printLint(prog *kremlin.Program, asJSON bool) int {
	findings := prog.Lint()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			_ = enc.Encode(f)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		return kremlin.ExitLint
	}
	return kremlin.ExitOK
}
