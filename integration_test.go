package kremlin_test

// End-to-end integration tests of the workflow the CLI tools wrap:
// compile → profile → serialize to disk → reload → plan, plus the
// pipeline options.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/frontcache"
	"kremlin/internal/krfuzz"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

const toolSrc = `
float img[64][64];
float out[64][64];

void blur() {
	for (int i = 1; i < 63; i++) {
		for (int j = 1; j < 63; j++) {
			out[i][j] = 0.2 * (img[i][j] + img[i-1][j] + img[i+1][j] + img[i][j-1] + img[i][j+1]);
		}
	}
}

int main() {
	for (int i = 0; i < 64; i++) {
		for (int j = 0; j < 64; j++) {
			img[i][j] = float((i * 7 + j * 3) % 13);
		}
	}
	blur();
	print("done", out[32][32]);
	return 0;
}
`

// TestProfileFileRoundTripPlan mirrors kremlin-run + kremlin: the profile
// written to disk yields the identical plan after reloading.
func TestProfileFileRoundTripPlan(t *testing.T) {
	prog, err := kremlin.Compile("tool.kr", toolSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tool.krpf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	loaded, err := profile.ReadFrom(g)
	if err != nil {
		t.Fatal(err)
	}

	p1 := prog.Plan(prof, planner.OpenMP())
	p2 := prog.Plan(loaded, planner.OpenMP())
	if len(p1.Recs) != len(p2.Recs) {
		t.Fatalf("plan sizes differ after reload: %d vs %d", len(p1.Recs), len(p2.Recs))
	}
	for i := range p1.Recs {
		if p1.Recs[i].Label() != p2.Recs[i].Label() {
			t.Errorf("rec %d: %s vs %s", i, p1.Recs[i].Label(), p2.Recs[i].Label())
		}
	}
}

// TestMergedProfilePlans mirrors kremlin-run -merge.
func TestMergedProfilePlans(t *testing.T) {
	prog, err := kremlin.Compile("tool.kr", toolSrc)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := prog.Profile(nil)
	if err != nil {
		t.Fatal(err)
	}
	single := prog.Plan(p1, planner.OpenMP())
	p1.Merge(p2)
	merged := prog.Plan(p1, planner.OpenMP())
	if len(single.Recs) != len(merged.Recs) {
		t.Errorf("merging identical runs changed the plan: %d vs %d", len(single.Recs), len(merged.Recs))
	}
}

// TestCompileOptionsMatrix: every combination of the compile options
// compiles and runs with the same output, and a compile through a front
// cache scope the other combinations have warmed decides exactly what a
// cold compile does. A compile with dependence breaking off bypasses the
// stored IR but still reads the stored absint and mod/ref summaries.
func TestCompileOptionsMatrix(t *testing.T) {
	opts := []kremlin.CompileOptions{
		{},
		{DisableAbsint: true},
		{DisableDependenceBreaking: true},
		{DisableDependenceBreaking: true, DisableAbsint: true},
	}
	srcs := map[string]string{"tool": toolSrc}
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for name, src := range srcs {
		var want string
		for i, o := range opts {
			scope := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes).Scope("")
			for j, w := range opts {
				if j != i {
					w.FrontCache = scope
					if _, err := kremlin.CompileWith(name+".kr", src, w); err != nil {
						t.Fatalf("%s %+v: %v", name, w, err)
					}
				}
			}
			cold, err := kremlin.CompileWith(name+".kr", src, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			wo := o
			wo.FrontCache = scope
			warm, err := kremlin.CompileWith(name+".kr", src, wo)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			if w, c := krfuzz.FrontView(warm), krfuzz.FrontView(cold); w != c {
				t.Fatalf("%s %+v: warm front view diverged from a cold compile\n--- cold ---\n%s--- warm ---\n%s", name, o, c, w)
			}
			if w, c := factsView(warm), factsView(cold); w != c {
				t.Fatalf("%s %+v: warm absint facts diverged from a cold compile\n--- cold ---\n%s--- warm ---\n%s", name, o, c, w)
			}
			var buf bytes.Buffer
			if _, err := warm.Run(&kremlin.RunConfig{Out: &buf}); err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			if i == 0 {
				want = buf.String()
			} else if buf.String() != want {
				t.Errorf("%s %+v: output %q differs from %q", name, o, buf.String(), want)
			}
		}
	}
}

// TestCompileErrorsSurface: the API returns diagnostics, not panics.
func TestCompileErrorsSurface(t *testing.T) {
	cases := []string{
		"int main() { return undeclared; }",
		"int main() { if (1) {} return 0; }",
		"not a program",
		"",
	}
	for _, src := range cases {
		if _, err := kremlin.Compile("bad.kr", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestFuncAccessor covers the small public helpers.
func TestFuncAccessor(t *testing.T) {
	prog, err := kremlin.Compile("tool.kr", toolSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Func("blur") == nil || prog.Func("main") == nil {
		t.Error("Func lookup failed")
	}
	if prog.Func("nope") != nil {
		t.Error("Func of unknown name should be nil")
	}
}

// TestHotspotsReport: the gprof-style flat profile (the paper's §2.1
// baseline workflow) ranks by self work, accumulates to ~100%, and keeps
// self <= total.
func TestHotspotsReport(t *testing.T) {
	prog, err := kremlin.Compile("tool.kr", toolSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.RunGprof(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := prog.Hotspots(res)
	if len(rows) == 0 {
		t.Fatal("empty hotspot list")
	}
	var selfSum uint64
	for i, r := range rows {
		if i > 0 && r.Self > rows[i-1].Self {
			t.Errorf("not sorted at %d", i)
		}
		if r.Self > r.Total {
			t.Errorf("%s: self %d > total %d", r.Region.Label(), r.Self, r.Total)
		}
		selfSum += r.Self
	}
	// Self work partitions total work (bodies folded into loops).
	if selfSum != res.Work {
		t.Errorf("self sum %d != work %d", selfSum, res.Work)
	}
	last := rows[len(rows)-1].CumPct
	if last < 99.9 || last > 100.1 {
		t.Errorf("cumulative ends at %.2f%%", last)
	}
	// The blur loop dominates and leads.
	if rows[0].Region.Func.Name != "blur" {
		t.Errorf("top hotspot is %s, want blur's loop", rows[0].Region.Label())
	}
	out := kremlin.RenderHotspots(rows)
	if !strings.Contains(out, "self%") || !strings.Contains(out, "blur") {
		t.Errorf("render missing columns:\n%s", out)
	}
}
