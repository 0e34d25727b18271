package kremlin_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kremlin"
	"kremlin/internal/frontcache"
	"kremlin/internal/krfuzz"
	"kremlin/internal/krgen"
	"kremlin/internal/planner"
)

// frontEdit compiles base and then edit through one fresh front cache,
// requires the edit's front view (IR, lint, vet, bytecode) to equal a cold
// compile's, and returns the edit compile's absint and mod/ref misses and
// its IR misses (the functions it lowered).
func frontEdit(t *testing.T, base, edit string) (misses, lowered uint64) {
	t.Helper()
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("")}
	if _, err := kremlin.CompileWith("f.kr", base, o); err != nil {
		t.Fatalf("base: %v", err)
	}
	before := fc.Stats()
	warm, err := kremlin.CompileWith("f.kr", edit, o)
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	after := fc.Stats()
	lowered = after.Kinds[frontcache.KindIR].Misses - before.Kinds[frontcache.KindIR].Misses
	misses = after.Misses - before.Misses - lowered
	cold, err := kremlin.Compile("f.kr", edit)
	if err != nil {
		t.Fatal(err)
	}
	if w, c := krfuzz.FrontView(warm), krfuzz.FrontView(cold); w != c {
		t.Fatalf("front cache diverged from a cold compile\n--- cold ---\n%s--- front cache ---\n%s", c, w)
	}
	if w, c := factsView(warm), factsView(cold); w != c {
		t.Fatalf("front cache facts diverged from a cold compile\n--- cold ---\n%s--- front cache ---\n%s", c, w)
	}
	return misses, lowered
}

// factsView renders every absint fact of p, including those the bytecode
// compiler leaves unused.
func factsView(p *kremlin.Program) string {
	var sb strings.Builder
	for _, f := range p.Module.Funcs {
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s b%d must-iterate=%v\n", f.Name, b.ID, p.Absint.MustIterate(b))
			for _, ins := range b.Instrs {
				v, ok := p.Absint.ValueOf(ins)
				fmt.Fprintf(&sb, "  %s %v/%v in-bounds=%v nonzero=%v\n", ins.Name(), v, ok,
					p.Absint.InBounds(ins), p.Absint.NonZeroDivisor(ins))
			}
		}
	}
	return sb.String()
}

// frontHelper has findings that carry positions: an unreachable branch, a
// division by zero and a serial loop.
const frontHelper = `int helper(int a[], int n) {
	int x = 5;
	if (x > 10) {
		print("never", x);
	}
	for (int i = 1; i < n; i++) {
		a[i] = a[i - 1] + 1;
	}
	int z = 0;
	return a[n - 1] / z;
}
`

const frontMain = `int main() {
	int a[16];
	a[0] = 1;
	print("h", helper(a, 16));
	return 0;
}
`

func TestFrontCacheLineShift(t *testing.T) {
	base := frontHelper + "\n" + frontMain
	// Lines inserted above the helper and inside its body move every
	// position but change no analysis input.
	edit := "// a comment\n\n\n" + strings.Replace(frontHelper, "\tint z = 0;", "\n\n\tint z = 0;", 1) + "\n" + frontMain
	// The helper's text changed, so it alone is lowered again; main's
	// stored body moves to its new offset.
	if m, l := frontEdit(t, base, edit); m != 0 || l != 1 {
		t.Errorf("line-shifting edit missed %d analysis lookups and lowered %d functions, want 0 and 1", m, l)
	}
}

func TestFrontCacheRename(t *testing.T) {
	base := frontHelper + "\n" + frontMain
	edit := strings.ReplaceAll(base, "helper", "renamed")
	// The helper's own name is not an analysis input; main's call site
	// names it, so main alone misses: first pass, final pass, mod/ref.
	// Every function sees the renamed declaration, so all are lowered
	// again.
	if m, l := frontEdit(t, base, edit); m != 3 || l != 2 {
		t.Errorf("rename missed %d analysis lookups and lowered %d functions, want 3 (main only) and 2", m, l)
	}
}

func TestFrontCacheCallerChangesArgRanges(t *testing.T) {
	const get = "int get(int a[], int i) {\n\treturn a[i];\n}\n\n"
	base := get + "int main() {\n\tint a[10];\n\ta[3] = 1;\n\tprint(\"g\", get(a, 3));\n\treturn 0;\n}\n"
	edit := get + "int main() {\n\tint a[10];\n\tint s = 0;\n\tfor (int k = 0; k < 20; k++) {\n\t\ts = s + get(a, k % 12);\n\t}\n\tprint(\"s\", s);\n\treturn 0;\n}\n"
	// main misses all three lookups; get's final pass reads the joined
	// argument ranges, so it must miss too.
	if m, l := frontEdit(t, base, edit); m != 4 || l != 1 {
		t.Errorf("caller edit missed %d analysis lookups and lowered %d functions, want 4 (main's three, get's final pass) and 1", m, l)
	}
}

func TestFrontCacheCalleeChangesReturnRange(t *testing.T) {
	const main = "int main() {\n\tint a[10];\n\tint i = idx();\n\ta[i] = 1;\n\tprint(\"a\", a[i]);\n\treturn 0;\n}\n"
	base := "int idx() {\n\treturn 3;\n}\n\n" + main
	edit := "int idx() {\n\treturn 12;\n}\n\n" + main
	// idx misses all three lookups; main's two absint passes read idx's
	// return range and must miss; its mod/ref summary reads idx's summary,
	// which did not change.
	if m, l := frontEdit(t, base, edit); m != 5 || l != 1 {
		t.Errorf("callee edit missed %d analysis lookups and lowered %d functions, want 5 (idx's three, main's two absint passes) and 1", m, l)
	}
}

// TestFrontCacheMainAndHelperShareBody: a helper and main with the same
// body have the same content sum, but only main's definite faults are
// errors, so their entries must not be shared.
func TestFrontCacheMainAndHelperShareBody(t *testing.T) {
	const body = "() {\n\tint z = 0;\n\tint q = 10 / z;\n\treturn q;\n}\n"
	for _, src := range []string{
		"int h" + body + "\nint main" + body,
		"int main" + body + "\nint h" + body,
	} {
		fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
		warm, err := kremlin.CompileWith("f.kr", src, kremlin.CompileOptions{FrontCache: fc.Scope("")})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := kremlin.Compile("f.kr", src)
		if err != nil {
			t.Fatal(err)
		}
		if w, c := krfuzz.FrontView(warm), krfuzz.FrontView(cold); w != c {
			t.Fatalf("front cache diverged from a cold compile\n--- cold ---\n%s--- front cache ---\n%s", c, w)
		}
		sev := map[string]string{}
		for _, f := range warm.Lint() {
			sev[f.Fn] = f.Severity
		}
		if sev["main"] != "error" || sev["h"] != "warn" {
			t.Errorf("severities %v, want main error and h warn", sev)
		}
	}
}

// TestFrontCacheConcurrentEdits compiles different edits of one program
// through one cache at once (run it under -race).
func TestFrontCacheConcurrentEdits(t *testing.T) {
	cfg := krgen.ScaleConfig{Funcs: 24, Iters: 8}
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("tenant")}
	if _, err := kremlin.CompileWith("s.kr", krgen.GenerateScale(1, cfg, nil), o); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				src := krgen.ScaleEdit(1, cfg, g*3+k)
				warm, err := kremlin.CompileWith("s.kr", src, o)
				if err != nil {
					t.Error(err)
					return
				}
				cold, err := kremlin.Compile("s.kr", src)
				if err != nil {
					t.Error(err)
					return
				}
				if krfuzz.FrontView(warm) != krfuzz.FrontView(cold) {
					t.Errorf("edit %d: front cache diverged from a cold compile", g*3+k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := fc.Stats(); st.Hits == 0 {
		t.Errorf("no front cache hits: %+v", st)
	}
}

// TestFrontCacheScopes: entries stored under one scope are invisible to
// another.
func TestFrontCacheScopes(t *testing.T) {
	src := frontHelper + "\n" + frontMain
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	if _, err := kremlin.CompileWith("f.kr", src, kremlin.CompileOptions{FrontCache: fc.Scope("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := kremlin.CompileWith("f.kr", src, kremlin.CompileOptions{FrontCache: fc.Scope("b")}); err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); st.Hits != 0 || st.Entries != int(st.Misses) {
		t.Errorf("stats across two scopes %+v, want no hits", st)
	}
}

// TestFrontCacheCalleeFinalSummaryMoves: h's edit changes which of k1 and
// k2 gets an informative argument (g1 and g2 pass them dim's faulting,
// valueless result, which joins as nothing), so the final summaries of g1
// and g2 swap while every first-pass summary main reads stays the same.
// main's final pass reads the final summaries and must miss.
func TestFrontCacheCalleeFinalSummaryMoves(t *testing.T) {
	const prog = `int G;
int k1(int x) {
	return x + 1;
}
int k2(int x) {
	return x + 1;
}
int g1() {
	int b[4];
	return k1(dim(b, 3));
}
int g2() {
	int b[4];
	return k2(dim(b, 3));
}
int h() {
	return k1(5) + k2(G);
}
int main() {
	int a[10];
	int i = g1();
	int j = g2();
	a[i] = 1;
	a[j] = 2;
	return h();
}
`
	edit := strings.Replace(prog, "k1(5) + k2(G)", "k1(G) + k2(5)", 1)
	frontEdit(t, prog, edit)
}

// TestFrontCacheCalleeSummaryChanges: w starts reading and writing a
// global, so main's mod/ref summary and the verdict of its loop change.
func TestFrontCacheCalleeSummaryChanges(t *testing.T) {
	const main = "int main() {\n\tint s = 0;\n\tfor (int i = 0; i < 10; i++) {\n\t\ts = s + w(i);\n\t}\n\tprint(\"s\", s + G);\n\treturn 0;\n}\n"
	base := "int G;\nint w(int x) {\n\treturn x;\n}\n" + main
	edit := "int G;\nint w(int x) {\n\tG = G + x;\n\treturn x;\n}\n" + main
	// w misses all three lookups; main's mod/ref summary reads w's.
	if m, l := frontEdit(t, base, edit); m != 4 || l != 1 {
		t.Errorf("callee edit missed %d analysis lookups and lowered %d functions, want 4 (w's three, main's mod/ref) and 1", m, l)
	}
}

// TestFrontCacheFirstCaller: h gains its first caller, whose argument
// tells it nothing, so h's final pass misses and reuses its first-pass
// states, rebuilt against the summaries its first pass saw; the final pass
// then reads the live ones (h's own first-pass summary, at its self-call).
func TestFrontCacheFirstCaller(t *testing.T) {
	const h = "int G;\nint h(int x) {\n\tif (x > 100) {\n\t\tint r = h(x - 1);\n\t\treturn 4;\n\t}\n\treturn 4;\n}\n"
	base := h + "int main() {\n\tprint(\"g\", G);\n\treturn 0;\n}\n"
	edit := h + "int main() {\n\tprint(\"g\", h(G));\n\treturn 0;\n}\n"
	// main misses all three lookups; h's final pass reads its (new)
	// parameter facts.
	if m, l := frontEdit(t, base, edit); m != 4 || l != 1 {
		t.Errorf("first caller missed %d analysis lookups and lowered %d functions, want 4 (main's three, h's final pass) and 1", m, l)
	}
}

// TestFrontCacheByteBound compiles edits of a program whose entries do not
// all fit the cache's byte bound: entries are evicted mid-compile, the
// bound holds, and every compile still equals a cold one.
func TestFrontCacheByteBound(t *testing.T) {
	cfg := krgen.ScaleConfig{Funcs: 24, Iters: 8}
	const bound = 16 << 10
	fc := frontcache.New(frontcache.MaxEntries, bound)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("")}
	for k := 0; k < 3; k++ {
		src := krgen.ScaleEdit(1, cfg, k)
		warm, err := kremlin.CompileWith("s.kr", src, o)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := kremlin.Compile("s.kr", src)
		if err != nil {
			t.Fatal(err)
		}
		if krfuzz.FrontView(warm) != krfuzz.FrontView(cold) {
			t.Fatalf("edit %d: front cache diverged from a cold compile", k)
		}
	}
	st := fc.Stats()
	if st.Bytes > bound || st.Entries == 0 {
		t.Errorf("stats %+v, want a non-empty cache within %d bytes", st, bound)
	}
	if uint64(st.Entries) >= st.Misses {
		t.Errorf("stats %+v: nothing was evicted", st)
	}
}

// scaleFrontConfig is the 1,111-helper scale program of the serve-edit
// benchmark, with fewer loop iterations so its profiles are quick.
var scaleFrontConfig = krgen.ScaleForLines(10000, 8)

// profileView profiles p and renders its KRPF bytes and OpenMP plan.
func profileView(t *testing.T, p *kremlin.Program) string {
	t.Helper()
	var out bytes.Buffer
	prof, _, err := p.Profile(&kremlin.RunConfig{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.String() + p.Plan(prof, planner.OpenMP()).Render()
}

// TestFrontCacheScaleEdits: single-helper edits of the scale program,
// early to late in the file, through one scope. Each lowers exactly the
// edited helper, moving every later function's stored body to its new
// offset, and compiles, profiles and plans exactly as a cold compile does.
func TestFrontCacheScaleEdits(t *testing.T) {
	cfg := scaleFrontConfig
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("tenant")}
	if _, err := kremlin.CompileWith("scale.kr", krgen.GenerateScale(1, cfg, nil), o); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		idx := k*cfg.Funcs/5 + 3
		src := krgen.ScaleEdit(1, cfg, idx)
		before := fc.Stats().Kinds[frontcache.KindIR]
		warm, err := kremlin.CompileWith("scale.kr", src, o)
		if err != nil {
			t.Fatal(err)
		}
		after := fc.Stats().Kinds[frontcache.KindIR]
		if m, h := after.Misses-before.Misses, after.Hits-before.Hits; m != 1 || h != uint64(cfg.Funcs) {
			t.Errorf("edit of %s: lowered %d functions and reused %d, want 1 and %d", krgen.ScaleFuncName(idx), m, h, cfg.Funcs)
		}
		cold, err := kremlin.Compile("scale.kr", src)
		if err != nil {
			t.Fatal(err)
		}
		if w, c := krfuzz.FrontView(warm), krfuzz.FrontView(cold); w != c {
			t.Fatalf("edit of %s: front view diverged from a cold compile", krgen.ScaleFuncName(idx))
		}
		if profileView(t, warm) != profileView(t, cold) {
			t.Fatalf("edit of %s: profile or plan diverged from a cold compile", krgen.ScaleFuncName(idx))
		}
	}
}

// TestFrontCacheScaleConcurrentEdits compiles two different edits of the
// scale program through one scope at once, so both read the same stored
// bodies (run it under -race).
func TestFrontCacheScaleConcurrentEdits(t *testing.T) {
	cfg := scaleFrontConfig
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	o := kremlin.CompileOptions{FrontCache: fc.Scope("tenant")}
	if _, err := kremlin.CompileWith("scale.kr", krgen.GenerateScale(1, cfg, nil), o); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	views := make([]string, 2)
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := kremlin.CompileWith("scale.kr", krgen.ScaleEdit(1, cfg, 100+g*700), o)
			if err != nil {
				t.Error(err)
				return
			}
			views[g] = krfuzz.FrontView(p)
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		cold, err := kremlin.Compile("scale.kr", krgen.ScaleEdit(1, cfg, 100+g*700))
		if err != nil {
			t.Fatal(err)
		}
		if v != krfuzz.FrontView(cold) {
			t.Errorf("edit %d: front view diverged from a cold compile", g)
		}
	}
	if ir := fc.Stats().Kinds[frontcache.KindIR]; ir.Misses != uint64(cfg.Funcs)+1+2 || ir.Hits != 2*uint64(cfg.Funcs) {
		t.Errorf("IR lookups %+v, want %d misses (the base and two edits) and %d hits", ir, cfg.Funcs+3, 2*cfg.Funcs)
	}
}
