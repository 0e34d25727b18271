package kremlin_test

import (
	"bytes"
	"testing"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/planner"
)

// TestVMProfilesMatchTree is the evidence for §3's claim that a statically
// instrumented binary can be optimized without tainting the analysis: on
// every benchmark the bytecode VM, with its fused superinstruction ranges,
// unchecked opcodes and compacted HCPA templates, writes the same HCPA
// profile bytes and renders the same OpenMP plan as the per-instruction
// tree interpreter.
func TestVMProfilesMatchTree(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every benchmark on both engines")
	}
	if raceEnabled {
		t.Skip("the tree engine under the race detector is too slow")
	}
	for _, b := range bench.All() {
		prog, err := kremlin.Compile(b.Name+".kr", b.Source)
		if err != nil {
			t.Fatal(err)
		}
		var profs [2][]byte
		var plans [2]string
		for i, e := range []kremlin.Engine{kremlin.EngineVM, kremlin.EngineTree} {
			prof, _, err := prog.Profile(&kremlin.RunConfig{Engine: e})
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, e, err)
			}
			var buf bytes.Buffer
			if _, err := prof.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			profs[i] = buf.Bytes()
			plans[i] = prog.Plan(prof, planner.OpenMP()).Render()
		}
		if !bytes.Equal(profs[0], profs[1]) {
			t.Errorf("%s: the vm profile (%d bytes) differs from the tree profile (%d bytes)", b.Name, len(profs[0]), len(profs[1]))
		}
		if plans[0] != plans[1] {
			t.Errorf("%s: plans differ\n--- vm ---\n%s--- tree ---\n%s", b.Name, plans[0], plans[1])
		}
	}
}
