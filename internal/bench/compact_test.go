package bench

import (
	"runtime"
	"testing"

	"kremlin"
	"kremlin/internal/bytecode"
)

// TestCompactTemplatesShrink counts, over the 11 benchmarks, the entries
// of every fused block's plain HCPA template against its compacted one
// (the template the VM's fused path replays), and checks that compaction
// keeps well under the plain count. Run with -v for the per-benchmark
// counts.
func TestCompactTemplatesShrink(t *testing.T) {
	var plain, compact int
	for _, b := range All() {
		p, err := kremlin.Compile(b.Name+".kr", b.Source)
		if err != nil {
			t.Fatal(err)
		}
		code := p.Bytecode()
		if err := bytecode.Verify(code); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var np, nc int
		for _, fc := range code.Funcs() {
			for _, bb := range fc.Blocks {
				if bb.Fused {
					np += len(bb.Tpl)
					nc += len(bb.Compact)
				}
			}
		}
		t.Logf("%s: fused blocks' template entries plain %d, compacted %d (%.0f%%)", b.Name, np, nc, 100*float64(nc)/float64(np))
		plain += np
		compact += nc
	}
	t.Logf("suite: plain %d, compacted %d (%.1f%%)", plain, compact, 100*float64(compact)/float64(plain))
	if 2*compact > plain {
		t.Errorf("compacted templates keep %d of %d plain entries, want at most half", compact, plain)
	}
}

// TestBytecodeCompileAllocs bounds what a whole-suite bytecode compile
// allocates: every function of the 11 benchmarks, templates included. It
// read 2.05 MiB with one Compactor allocated per function and 1.74 MiB
// with them pooled (1.89 MiB under -race).
func TestBytecodeCompileAllocs(t *testing.T) {
	var progs []*kremlin.Program
	for _, b := range All() {
		p, err := kremlin.Compile(b.Name+".kr", b.Source)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	compileAll := func() {
		for _, p := range progs {
			bytecode.Compile(p.Module, p.Regions, p.Instr, p.Absint).Funcs()
		}
	}
	compileAll() // warm any pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compileAll()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("whole-suite bytecode compile: %.2f MiB in %.1fk objects", bytes/(1<<20), objs/1000)
	// Under -race the pool drops a quarter of the Compactors put back.
	if !raceEnabled && bytes > 1.9*(1<<20) {
		t.Errorf("whole-suite bytecode compile allocates %.2f MiB, want at most 1.9 MiB", bytes/(1<<20))
	}
}
