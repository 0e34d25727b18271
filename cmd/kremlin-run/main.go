// Command kremlin-run executes an instrumented Kr program — the
// equivalent of running the kremlin-cc-built binary. The program runs
// normally (its output goes to stdout) while hierarchical critical path
// analysis records the parallelism profile, which is compressed on line
// and written to a .krpf file for the planner.
//
// Multiple runs can append into the same profile (-merge), the paper's
// multi-run aggregation that reduces input sensitivity.
//
// -mindepth/-maxdepth limit HCPA collection to a window of region depths,
// the paper's way of bounding the profiler's shadow-memory cost.
//
// Usage:
//
//	kremlin-run [-mode=hcpa|gprof] [-o prog.krpf] [-merge] [-mindepth N] [-maxdepth N]
//	            [-timeout d] [-max-insns N] [-cpuprofile f] [-memprofile f] prog.kr
//
// Exit codes follow the shared taxonomy (kremlin.ExitCodeFor): 0 success,
// 1 I/O or other error, 2 usage, 3 parse error, 4 analysis error, 5
// runtime error, 6 resource limit (budget, -timeout deadline, memory cap).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/profile"
)

// fail reports err and exits with its taxonomy code.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kremlin-run:", err)
	os.Exit(kremlin.ExitCodeFor(err))
}

func main() {
	out := flag.String("o", "", "profile output path (default: source with .krpf extension)")
	merge := flag.Bool("merge", false, "merge into an existing profile instead of replacing it")
	maxDepth := flag.Int("maxdepth", 0, "region-depth collection window upper bound (0 = default)")
	minDepth := flag.Int("mindepth", 0, "region-depth collection window lower bound")
	mode := flag.String("mode", "hcpa", "instrumentation mode: hcpa (parallelism profile) or gprof (serial hotspot list)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the run (0 = none); overrun exits 6")
	maxInsns := flag.Uint64("max-insns", 0, "instruction budget for the run (0 = default); overrun exits 6")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProf := flag.String("memprofile", "", "write a heap profile to this path")
	engine := flag.String("engine", "vm", "execution engine: vm (block-batched bytecode) or tree (reference interpreter)")
	cacheDir := flag.String("cache-dir", "", "incremental profile cache directory (hcpa mode, full depth window only)")
	cacheStats := flag.Bool("cache-stats", false, "print incremental-cache statistics to stderr after the run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kremlin-run [-o prog.krpf] [-merge] [-maxdepth N] prog.kr")
		os.Exit(2)
	}
	eng, err := kremlin.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kremlin-run: %v\n", err)
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-run:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "kremlin-run:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kremlin-run:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "kremlin-run:", err)
			}
			f.Close()
		}()
	}
	path := flag.Arg(0)
	if *out == "" {
		*out = strings.TrimSuffix(path, ".kr") + ".krpf"
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-run:", err)
		os.Exit(1)
	}
	prog, err := kremlin.Compile(path, string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(kremlin.ExitCodeFor(err))
	}
	// -timeout and -max-insns ride the same context/budget plumbing the
	// serve daemon uses, so the CLI and the daemon stop runaway programs
	// identically.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *mode == "gprof" {
		// The paper's §2.1 baseline workflow: a serial hotspot list with no
		// parallelism information.
		res, err := prog.RunGprof(&kremlin.RunConfig{Out: os.Stdout, Ctx: ctx, MaxSteps: *maxInsns, Engine: eng})
		if err != nil {
			fail(err)
		}
		fmt.Print(kremlin.RenderHotspots(prog.Hotspots(res)))
		return
	}
	cfg := &kremlin.RunConfig{
		Out: os.Stdout, MinDepth: *minDepth, MaxDepth: *maxDepth,
		Ctx: ctx, MaxSteps: *maxInsns, Engine: eng,
	}
	// The incremental cache only applies to full-depth HCPA collection
	// (the cache records full sub-profiles; a depth window would record
	// partial ones).
	var stats inccache.Stats
	if *cacheDir != "" {
		st, err := inccache.Open(*cacheDir)
		if err != nil {
			fail(err)
		}
		cfg.Cache = st
		cfg.CacheStats = &stats
	}
	prof, res, err := prog.Profile(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.Cache != nil && *cacheStats {
		fmt.Fprintf(os.Stderr, "kremlin-run: cache %s: %d/%d hits (%.1f%%), %d recorded, %d steps skipped, %d corrupt repaired\n",
			*cacheDir, stats.Hits, stats.Lookups, 100*stats.HitRate(),
			stats.Recorded, stats.SkippedSteps, stats.Corrupt)
	}

	if *merge {
		if f, err := os.Open(*out); err == nil {
			old, rerr := profile.ReadFrom(f)
			f.Close()
			if rerr == nil {
				rerr = prog.CheckProfile(old)
			}
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "kremlin-run: existing profile %s: %v\n", *out, rerr)
				os.Exit(1)
			}
			old.Merge(prof)
			prof = old
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-run:", err)
		os.Exit(1)
	}
	if _, err := prof.WriteTo(f); err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-run:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-run:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kremlin-run: %d work units; %d dynamic regions compressed to %d dictionary entries (%d bytes, raw %d bytes); profile written to %s\n",
		res.Work, prof.Dict.RawCount, len(prof.Dict.Entries), prof.MarshalSize(), prof.RawBytes(), *out)
}
