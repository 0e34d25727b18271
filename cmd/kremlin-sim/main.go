// Command kremlin-sim answers "what would this plan buy me?": it profiles
// a program (or loads a saved profile), takes a plan — the OpenMP
// planner's by default, or an explicit region list — and simulates its
// parallel execution across core counts on the bundled machine model.
//
// Usage:
//
//	kremlin-sim [-profile prog.krpf] [-plan label,label,...]
//	            [-cores N] [-personality openmp|cilk] prog.kr
//
// Labels are as printed by `kremlin -labels`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kremlin"
	"kremlin/internal/exec"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

func main() {
	profPath := flag.String("profile", "", "profile file from kremlin-run (default: profile on the fly)")
	planArg := flag.String("plan", "", "comma-separated region labels to parallelize (default: planner output)")
	cores := flag.Int("cores", 32, "maximum simulated core count")
	pers := flag.String("personality", "openmp", "planner personality when -plan is not given")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kremlin-sim [-profile f.krpf] [-plan a,b] [-cores N] prog.kr")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := kremlin.Compile(path, string(src))
	if err != nil {
		fatal(err)
	}
	var prof *profile.Profile
	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			fatal(err)
		}
		prof, err = profile.ReadFrom(f)
		f.Close()
		if err == nil {
			err = prog.CheckProfile(prof)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		if prof, _, err = prog.Profile(nil); err != nil {
			fatal(err)
		}
	}
	sum := prog.Summarize(prof)

	ids := map[int]bool{}
	var planDesc string
	if *planArg != "" {
		for _, label := range strings.Split(*planArg, ",") {
			label = strings.TrimSpace(label)
			r := prog.Regions.ByLabel(label)
			if r == nil {
				fatal(fmt.Errorf("unknown region label %q (try `kremlin -labels %s`)", label, path))
			}
			ids[r.ID] = true
		}
		planDesc = fmt.Sprintf("explicit plan (%d regions)", len(ids))
	} else {
		var p planner.Personality
		switch *pers {
		case "openmp":
			p = planner.OpenMP()
		case "cilk":
			p = planner.Cilk()
		default:
			fatal(fmt.Errorf("unknown personality %q", *pers))
		}
		plan := planner.Make(sum, p)
		for _, r := range plan.Recs {
			ids[r.Stats.Region.ID] = true
		}
		planDesc = fmt.Sprintf("%s plan (%d regions)", p.Name, len(plan.Recs))
	}

	machine := exec.Default32()
	fmt.Printf("%s: %s\n", path, planDesc)
	fmt.Printf("%6s %14s %10s %10s\n", "cores", "time (units)", "speedup", "coverage")
	best := exec.Simulate(sum, ids, machine.WithCores(1))
	for p := 1; p <= *cores; p *= 2 {
		r := exec.Simulate(sum, ids, machine.WithCores(p))
		fmt.Printf("%6d %14.0f %9.2fx %9.1f%%\n", p, r.ParTime, r.Speedup, 100*r.ParCoverage)
		if r.ParTime < best.ParTime {
			best = r
		}
	}
	fmt.Printf("best configuration: %d cores, %.2fx\n", best.Cores, best.Speedup)
	fmt.Printf("ideal bound (whole-program CPA, unlimited cores): %.2fx\n", exec.IdealSpeedup(sum))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kremlin-sim:", err)
	os.Exit(1)
}
