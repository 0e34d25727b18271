package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/krgen"
	"kremlin/internal/planner"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values printed by Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, 1.35, 6.7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func pick(names ...string) []suiteInput {
	var ins []suiteInput
	for _, in := range suiteInputs() {
		for _, n := range names {
			if in.name == n {
				ins = append(ins, in)
			}
		}
	}
	return ins
}

// A wrong reference digest must surface as failed operations in the
// result, not as a crash or an aborted run.
func TestCorruptDigestCountsAsFailure(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	bad := *ref
	bad.Suite = map[string]suiteRef{}
	for k, v := range ref.Suite {
		bad.Suite[k] = v
	}
	cg := bad.Suite["cg"]
	cg.Hotspots = "0000000000000000"
	bad.Suite["cg"] = cg

	o := options{workload: "suite-gprof", seed: 3, seconds: 200 * time.Millisecond, root: t.TempDir()}
	r, err := runSuite(o, "gprof", pick("cg", "lu"), &bad)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if r.passes < 1 || r.attempted != 2*r.passes || r.failed != r.passes {
		t.Fatalf("passes %d attempted %d failed %d; want every cg op failed and every lu op passed",
			r.passes, r.attempted, r.failed)
	}
	if len(r.samples["cg"]) != 0 || len(r.samples["lu"]) != r.passes {
		t.Fatalf("samples cg %d lu %d; failed ops must not be timed samples", len(r.samples["cg"]), len(r.samples["lu"]))
	}
	if len(r.probes) != r.attempted {
		t.Fatalf("%d host-speed probes for %d operations; want one per operation", len(r.probes), r.attempted)
	}
	var out bytes.Buffer
	if err := r.report(bufio.NewWriter(&out)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != r.passes {
		t.Fatalf("result %+v; want correct=false and %d failed", res, r.passes)
	}
}

// The gated times are the run's CPU times brought to the reference host
// speed by the run's median probe time.
func TestGatedTimesScaleByProbe(t *testing.T) {
	r := newRun(options{})
	r.setups = []float64{0.1, 0.3, 0.2}
	r.samples["a"] = []float64{10, 30, 20}
	r.probes = []float64{2 * refProbeMS, 3 * refProbeMS, refProbeMS}
	got := map[string]float64{}
	for _, m := range r.endToEnd() {
		got[m.name] = m.value
	}
	if math.Abs(got["op_ms"]-10) > 1e-9 || math.Abs(got["setup_s"]-0.1) > 1e-9 {
		t.Fatalf("op_ms %v setup_s %v; want 10 and 0.1 (median CPU times halved by a probe twice the reference)",
			got["op_ms"], got["setup_s"])
	}
}

// The traced pipeline re-creates kremlin.Compile phase by phase; it must
// produce byte-identical profiles and plans, or the per-layer split would
// describe a different program.
func TestTracedPipelineMatchesCompile(t *testing.T) {
	type prog struct{ name, src string }
	progs := []prog{{scaleName, krgen.ScaleEdit(scaleSeed, krgen.ScaleForLines(300, 20), 7)}}
	for _, in := range pick("cg", "ep", "is", "lu", "mg") {
		progs = append(progs, prog{in.file, in.src})
	}
	for _, pr := range progs {
		want, err := kremlin.Compile(pr.name, pr.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compileTraced(newTracer(), pr.name, pr.src)
		if err != nil {
			t.Fatal(err)
		}
		wp, _, err := want.Profile(nil)
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := got.Profile(nil)
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		_, _ = wp.WriteTo(&wb)
		_, _ = gp.WriteTo(&gb)
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Errorf("%s: traced pipeline profile differs from kremlin.Compile's", pr.name)
		}
		if w, g := want.Plan(wp, planner.OpenMP()).Render(), got.Plan(gp, planner.OpenMP()).Render(); w != g {
			t.Errorf("%s: traced pipeline plan differs:\n%s\nwant:\n%s", pr.name, g, w)
		}
	}
}

// One traced serve-edit run end to end: daemon sessions, the served op,
// the replica, and every per-layer metric present.
func TestServeEditTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts several daemons")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: "serve-edit", seed: 5, seconds: time.Millisecond, root: t.TempDir(), tr: newTracer()}
	r, err := runServeEdit(o, ref)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("attempted %d failed %d: %v", r.attempted, r.failed, r.errs)
	}
	got := map[string]float64{}
	for _, m := range r.perLayer() {
		got[m.name] = m.value
	}
	if len(r.setups) < minSetups {
		t.Errorf("%d set-up samples, want at least %d", len(r.setups), minSetups)
	}
	for _, name := range []string{"parser.ms", "absint.ms", "inccache.lookups", "inccache.hit_rate", "serve.stream_kb", "serve.compile_cache_mb_per_job", "kremlib.hcpa_ms", "go.alloc_mb"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
}

func TestStripElapsed(t *testing.T) {
	in := []byte(`{"event":"output","data":"t 1\n"}` + "\n" + `{"event":"done","elapsed_ms":12.5}` + "\n")
	got, err := stripElapsed(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"event":"output","data":"t 1\n"}` + "\n" + `{"event":"done"}` + "\n"
	if string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if _, err := stripElapsed([]byte(`{"event":"error","kind":"timeout"}` + "\n")); err == nil {
		t.Fatal("a stream without a done event must be rejected")
	}
}

// The daemon in serve-edit copies three of kremlin-serve's flag defaults;
// this keeps the copies equal to the command's flags.
func TestServeDefaultsMatchFlags(t *testing.T) {
	const path = "../cmd/kremlin-serve/main.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"job-cache":     defaultJobCache,
		"compile-cache": defaultCompileCache,
		"inccache-max":  defaultIncCacheMax,
	}
	found := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Int" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		w, ok := want[name]
		if !ok {
			return true
		}
		found[name] = true
		var expr bytes.Buffer
		if err := printer.Fprint(&expr, fset, call.Args[1]); err != nil {
			t.Fatal(err)
		}
		tv, err := types.Eval(fset, nil, token.NoPos, expr.String())
		if err != nil || tv.Value == nil {
			t.Errorf("-%s default %q is not a constant: %v", name, expr.String(), err)
			return true
		}
		if got := tv.Value.ExactString(); got != strconv.FormatInt(w, 10) {
			t.Errorf("-%s default is %s in %s, the benchmark's daemon uses %d", name, got, path, w)
		}
		return true
	})
	for name := range want {
		if !found[name] {
			t.Errorf("no flag.Int(%q, ...) in %s", name, path)
		}
	}
}
