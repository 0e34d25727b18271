package kremlin_test

// Scale-stress tier: profile a ~100k-line generated program end to end
// under a fixed memory budget, edit one function, and re-profile through
// the incremental cache. Locks in the headline incremental-reprofiling
// contract: completion under caps, ≥ 99% hit rate after a single-function
// edit, a ≥ 5x reduction in executed (non-replayed) instructions, a ≥ 5x
// reduction in CPU time, and a byte-identical profile. Skipped under
// -short; CI runs it in the scale-smoke job.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/krgen"
)

const (
	scaleStressLines = 100000
	scaleStressIters = 60
	scaleStressSeed  = 42
)

func scaleRun(t *testing.T, src string, st *inccache.Store) ([]byte, uint64, inccache.Stats, time.Duration) {
	t.Helper()
	p, err := kremlin.Compile("scale.kr", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var stats inccache.Stats
	var out bytes.Buffer
	// A profile run starts no goroutines, so with the goroutine locked to
	// its thread the thread's CPU time covers all of the run's own work.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	prof, res, err := p.Profile(&kremlin.RunConfig{
		Out:            &out,
		Cache:          st,
		CacheStats:     &stats,
		MaxShadowPages: 1 << 14,
		MaxHeapWords:   1 << 22,
	})
	elapsed := threadCPU() - start
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	var b bytes.Buffer
	if _, err := prof.WriteTo(&b); err != nil {
		t.Fatalf("profile write: %v", err)
	}
	return b.Bytes(), res.Steps, stats, elapsed
}

func TestScaleStressIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("scale stress skipped in -short mode")
	}
	cfg := krgen.ScaleForLines(scaleStressLines, scaleStressIters)
	base := krgen.GenerateScale(scaleStressSeed, cfg, nil)
	edited := krgen.ScaleEdit(scaleStressSeed, cfg, cfg.Funcs/2)

	dir := t.TempDir()
	st, err := inccache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Cold run under the memory budget populates the cache.
	// Both runs are timed as the CPU time of the thread that runs them
	// (getrusage RUSAGE_THREAD on Linux): on a shared host, wall time also
	// counts the stretches the vCPU is taken away, and process CPU time
	// counts Go's idle-priority GC workers, which run only while a core is
	// idle; either swung the cold run by more than the 5x margin.
	_, _, coldStats, coldCPU := scaleRun(t, base, st)
	if coldStats.Recorded < uint64(cfg.Funcs)*9/10 {
		t.Fatalf("cold run recorded %d extents, want ~%d", coldStats.Recorded, cfg.Funcs)
	}
	t.Logf("cold: %v CPU, recorded %d", coldCPU, coldStats.Recorded)

	// Ground truth for the edited program, computed without any cache.
	p, err := kremlin.Compile("scale.kr", edited)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	prof, res, err := p.Profile(&kremlin.RunConfig{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	var truth bytes.Buffer
	if _, err := prof.WriteTo(&truth); err != nil {
		t.Fatal(err)
	}

	// Warm incremental run of the edited program over a fresh store.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st2, err := inccache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmProf, warmSteps, warmStats, warmCPU := scaleRun(t, edited, st2)
	runtime.ReadMemStats(&after)
	t.Logf("warm: %v CPU, lookups %d hits %d skippedSteps %d / steps %d",
		warmCPU, warmStats.Lookups, warmStats.Hits, warmStats.SkippedSteps, warmSteps)

	if !bytes.Equal(warmProf, truth.Bytes()) {
		t.Fatalf("incremental profile differs from from-scratch profile")
	}
	if warmSteps != res.Steps {
		t.Fatalf("incremental steps %d != from-scratch steps %d", warmSteps, res.Steps)
	}
	if hr := warmStats.HitRate(); hr < 0.99 {
		t.Fatalf("hit rate %.4f after single-function edit, want >= 0.99", hr)
	}
	// Executed-instruction speedup: the warm run replays SkippedSteps of
	// the cold run's work from the cache.
	executed := warmSteps - warmStats.SkippedSteps
	if executed == 0 || warmSteps/executed < 5 {
		t.Fatalf("executed-step speedup %.1fx, want >= 5x (steps %d, executed %d)",
			float64(warmSteps)/float64(executed), warmSteps, executed)
	}
	if coldCPU < 5*warmCPU {
		t.Fatalf("CPU-time speedup %.1fx, want >= 5x (cold %v, warm %v)",
			float64(coldCPU)/float64(warmCPU), coldCPU, warmCPU)
	}
	// The warm run must not balloon the Go heap: the replay path splices
	// compressed extents instead of re-simulating shadow state.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<30 {
		t.Fatalf("warm run grew heap by %d bytes", grew)
	}
}
