package krfuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kremlin"
	"kremlin/internal/bench"
)

// FuzzPipeline is the native-fuzzing entry point for the whole pipeline:
// the input is a generator seed, the body is the differential/metamorphic
// oracle. `go test -fuzz=FuzzPipeline ./internal/krfuzz` explores seeds
// far beyond the deterministic 200 that run in tier-1.
func FuzzPipeline(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(seed, Default())
		if err := Check("fuzz.kr", p.Source(), OracleConfig{}); err != nil {
			fail := err.(*Failure)
			t.Fatalf("seed %d: %v\n--- program ---\n%s", seed, err, fail.Source)
		}
	})
}

// TestSubscriptCorpusOracle replays the subscript-pattern corpus through
// the full oracle deterministically: these programs aim the dependence
// tests (ZIV, strong SIV, GCD, non-affine fallback) and the oracle's
// depcheck-soundness check cross-validates every "provably parallel"
// verdict against the runtime dependence tracer.
func TestSubscriptCorpusOracle(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "subscript-*.kr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no subscript corpus found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(filepath.Base(path), string(src), OracleConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVMCorpusOracle replays the VM-targeted corpus through the full
// oracle. These programs aim the bytecode engine's superinstructions
// (fused compare-branch, fused 1-D indexed load/store), empty and
// fallthrough-only blocks, and off-by-one-prone branch boundaries; the
// oracle's engine matrix cross-checks every run against the tree-walking
// reference interpreter.
func TestVMCorpusOracle(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "vm-*.kr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no vm corpus found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(filepath.Base(path), string(src), OracleConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzCompileAndRun feeds arbitrary text to the full front end and, when
// it compiles, to the interpreter. The corpus seeds with every benchmark
// and example program, so mutation starts from realistic Kr. The
// contract: diagnostics or clean runs, never panics or hangs. Runtime
// errors (step-budget exhaustion, out-of-range subscripts mutated in) are
// legitimate outcomes, not failures.
func FuzzCompileAndRun(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	f.Add(bench.Tracking().Source)
	for _, kr := range []string{
		"../../examples/quickstart/quickstart.kr",
		"../../examples/gprofcompare/compare.kr",
	} {
		src, err := os.ReadFile(filepath.FromSlash(kr))
		if err != nil {
			f.Fatalf("corpus seed %s: %v", kr, err)
		}
		f.Add(string(src))
	}
	// Array-subscript shapes for the dependence analyzer: ZIV cells,
	// strong-SIV distances, coprime strides, non-affine (indirect)
	// indices, negative steps, and aliased array arguments. Mutating from
	// these keeps the fuzzer inside the subscript-test decision tree.
	subs, err := filepath.Glob(filepath.Join("testdata", "subscript-*.kr"))
	if err != nil || len(subs) == 0 {
		f.Fatalf("no subscript corpus found: %v", err)
	}
	for _, path := range subs {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("int main() { return 0; }")
	f.Add("void broken( { if while } )")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := kremlin.Compile("fuzz.kr", src)
		if err != nil {
			return // diagnostics are the expected answer for malformed input
		}
		// Keep mutated infinite loops bounded: a small step budget turns
		// them into ordinary errors.
		cfg := &kremlin.RunConfig{Out: &strings.Builder{}, MaxSteps: 2_000_000}
		if _, err := prog.Run(cfg); err != nil {
			return
		}
		// A program that runs cleanly must also profile cleanly.
		if _, _, err := prog.Profile(&kremlin.RunConfig{Out: &strings.Builder{}, MaxSteps: 2_000_000}); err != nil {
			t.Fatalf("plain run succeeded but profiling failed: %v\n--- program ---\n%s", err, src)
		}
	})
}
