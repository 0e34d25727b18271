package krfuzz

import (
	"strings"
	"testing"
)

// TestIncrementalOracle is the tier-1 incremental-reprofiling property
// test: seeded (program, single-function-edit) pairs through the
// incremental-vs-full oracle on both engines plus the cross-engine
// pairing.
func TestIncrementalOracle(t *testing.T) {
	const n = 40
	kinds := map[string]int{}
	for seed := int64(0); seed < n; seed++ {
		p := Generate(seed, Default())
		mut, kind, target := Mutate(p, seed+1)
		if mut == nil {
			t.Fatalf("seed %d: no mutation candidate", seed)
		}
		kinds[kind.String()]++
		if err := CheckIncremental("krinc.kr", p.Source(), mut.Source(), OracleConfig{}); err != nil {
			t.Fatalf("seed %d (%s of %s): %v\n--- base ---\n%s\n--- edited ---\n%s",
				seed, kind, target, err, p.Source(), mut.Source())
		}
	}
	// The corpus must exercise every edit pattern.
	for k := MutationKind(0); k < NumMutationKinds; k++ {
		if kinds[k.String()] == 0 {
			t.Errorf("%d-seed corpus never produced a %s", n, k)
		}
	}
}

// TestMutateDeterministic: the same (program, mutSeed) must always yield
// the same edit — the foundation of incremental reproducers.
func TestMutateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := Generate(seed, Default())
		a, ka, ta := Mutate(p, seed*7+1)
		b, kb, tb := Mutate(p, seed*7+1)
		if a.Source() != b.Source() || ka != kb || ta != tb {
			t.Fatalf("seed %d: two mutations with the same mutSeed differ", seed)
		}
	}
}

// TestMutateSignaturePreserving: an edit rewrites exactly one function
// body; every signature line and all of main must survive byte-for-byte.
func TestMutateSignaturePreserving(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Generate(seed, Default())
		mut, _, target := Mutate(p, seed+100)
		base, edit := p.Source(), mut.Source()
		if base == edit {
			continue // rare: the regenerated body matched the original
		}
		for _, src := range []string{base, edit} {
			if !strings.Contains(src, target+"(") {
				t.Fatalf("seed %d: target %s missing from source", seed, target)
			}
		}
		// Every function signature present in the base must appear
		// verbatim in the edit (signatures never change).
		for _, line := range strings.Split(base, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "int ") || strings.HasPrefix(trimmed, "float ") {
				if strings.HasSuffix(trimmed, "{") && strings.Contains(trimmed, "(") {
					if !strings.Contains(edit, trimmed) {
						t.Fatalf("seed %d: signature %q missing after mutation", seed, trimmed)
					}
				}
			}
		}
		// The mutated program must still pass the base oracle (safety is
		// preserved by construction).
		if err := Check("krmut.kr", edit, OracleConfig{}); err != nil {
			t.Fatalf("seed %d: mutated program fails base oracle: %v\n%s", seed, err, edit)
		}
	}
}
