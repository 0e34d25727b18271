package krfuzz

import (
	"strings"
	"testing"
	"time"
)

// TestOracle200 is the tier-1 property test: 200 seeded programs through
// the full differential/metamorphic oracle. The acceptance budget is 60 seconds; the suite runs in a
// few seconds, so a breach signals a pipeline performance regression, not
// just flakiness.
func TestOracle200(t *testing.T) {
	start := time.Now()
	const n = 200
	var cov Coverage
	for seed := int64(0); seed < n; seed++ {
		p := Generate(seed, Default())
		cov.Merge(p.Coverage)
		if err := Check("krfuzz.kr", p.Source(), OracleConfig{}); err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, p.Source())
		}
	}
	if missing := cov.Missing(); len(missing) > 0 {
		names := make([]string, len(missing))
		for i, c := range missing {
			names[i] = c.String()
		}
		t.Errorf("200-seed corpus never generated: %s", strings.Join(names, ", "))
	}
	budget := 60 * time.Second
	if raceEnabled {
		// The race detector slows the pipeline 5-10x; the budget guards
		// non-instrumented performance, so scale it rather than letting
		// every -race run trip it.
		budget = 10 * time.Minute
	}
	if el := time.Since(start); el > budget {
		t.Errorf("property test took %v, budget is %v", el, budget)
	}
}

// TestGenerateDeterministic: the same (seed, config) must yield
// byte-identical source — the foundation of reproducers.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed, Default())
		b := Generate(seed, Default())
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if a.Coverage != b.Coverage {
			t.Fatalf("seed %d: coverage differs across generations", seed)
		}
	}
}

// TestGenerateDiverse: distinct seeds must yield distinct programs.
func TestGenerateDiverse(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(0); seed < 100; seed++ {
		src := Generate(seed, Default()).Source()
		if prev, dup := seen[src]; dup {
			t.Fatalf("seeds %d and %d generated identical programs", prev, seed)
		}
		seen[src] = seed
	}
}

// TestStressConfig: the deeper campaign configuration also generates
// valid programs.
func TestStressConfig(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := Generate(seed, Stress())
		if err := Check("krfuzz.kr", p.Source(), OracleConfig{}); err != nil {
			t.Fatalf("seed %d (stress): %v\nsource:\n%s", seed, err, p.Source())
		}
	}
}

// TestShrink: the shrinker must reduce a program failing an artificial
// oracle predicate while preserving the failure, and the result must be
// no larger than the input.
func TestShrink(t *testing.T) {
	// A program that fails the "compile" check because it references an
	// undeclared variable — padded with deletable statements the shrinker
	// should strip.
	src := `int g0;
int g1[10];

int main() {
	int a = 1;
	int b = 2;
	for (int i = 0; i < 5; i++) {
		g1[i % 10] = a + b;
	}
	g0 = bogus;
	return 0;
}
`
	err := Check("bad.kr", src, OracleConfig{})
	f, ok := err.(*Failure)
	if !ok || f.Check != "compile" {
		t.Fatalf("setup: expected compile failure, got %v", err)
	}
	shrunk := Shrink(f, OracleConfig{}, 100)
	if len(shrunk) >= len(src) {
		t.Fatalf("shrinker did not shrink: %d >= %d bytes", len(shrunk), len(src))
	}
	if err := Check("shrunk.kr", shrunk, OracleConfig{}); err == nil {
		t.Fatalf("shrunk program no longer fails:\n%s", shrunk)
	} else if ff, ok := err.(*Failure); !ok || ff.Check != "compile" {
		t.Fatalf("shrunk program fails a different check (%v):\n%s", err, shrunk)
	}
	// The deletable scaffolding should actually be gone.
	if strings.Contains(shrunk, "for (") {
		t.Errorf("shrinker kept an irrelevant loop:\n%s", shrunk)
	}
}

// TestCampaignClean: a campaign over healthy seeds reports zero failures
// and full construct coverage.
func TestCampaignClean(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		N:      30,
		Seed:   1000,
		Oracle: OracleConfig{},
		OutDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("campaign reported %d failures: %+v", res.Failed, res.Failures[0])
	}
	if res.Passed != 30 {
		t.Fatalf("passed %d of 30", res.Passed)
	}
}
