package bench

import (
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
