package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/inccache"
)

// sealedProg calls pure scalar functions in a loop — the shape the
// incremental re-profiling cache accelerates. The constant-argument
// triple(7) call is the replayable one (its argument is timely at every
// call site); the loop-fed mix calls exercise the record path.
const sealedProg = `
int triple(int x) {
	int acc = 0;
	for (int i = 0; i < 40; i++) {
		acc = acc + x * 3 + i;
	}
	return acc;
}

int mix(int a, int b) {
	int s = triple(a);
	for (int i = 0; i < 10; i++) {
		s = s + b * i;
	}
	return s;
}

int main() {
	int t = 0;
	for (int i = 0; i < 20; i++) {
		t = t + mix(i % 3, i % 5) + triple(7);
	}
	print("t", t);
	return 0;
}
`

// rawPost posts a body and returns the status plus the raw response bytes,
// for byte-level stream comparisons.
func rawPost(t *testing.T, client *http.Client, url, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// fixedClock pins Config.Now so the "done" event's elapsed-ms field is
// deterministic and whole streams can be compared byte for byte.
func fixedClock() func() time.Time {
	at := time.Unix(1_700_000_000, 0)
	return func() time.Time { return at }
}

func openServeStore(t *testing.T) *inccache.Store {
	t.Helper()
	st, err := inccache.Open(t.TempDir() + "/inccache")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeCompileCache: resubmitting the same program under a different
// personality misses the whole-job cache (the plan differs) but hits the
// compile cache — the front end runs once for both jobs.
func TestServeCompileCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, JobCache: 8, CompileCache: 8})
	if st, _ := post(t, ts.Client(), ts.URL+"/profile?name=q.kr", quickProg, nil); st != http.StatusOK {
		t.Fatalf("first submission: status = %d", st)
	}
	if st, _ := post(t, ts.Client(), ts.URL+"/profile?name=q.kr&personality=cilk", quickProg, nil); st != http.StatusOK {
		t.Fatalf("cilk submission: status = %d", st)
	}
	stats := s.Stats()
	if stats.CacheHits != 0 || stats.CacheMisses != 2 {
		t.Errorf("job cache hits/misses = %d/%d, want 0/2 (personality changes the job key)",
			stats.CacheHits, stats.CacheMisses)
	}
	if stats.CompileMisses != 1 || stats.CompileHits != 1 {
		t.Errorf("compile cache hits/misses = %d/%d, want 1/1",
			stats.CompileHits, stats.CompileMisses)
	}
	if stats.CompileEntries != 1 || stats.CompileBytes == 0 {
		t.Errorf("compile cache residency = %d entries / %d bytes, want 1 entry with nonzero cost",
			stats.CompileEntries, stats.CompileBytes)
	}

	// A compile error is not cached: every submission of a broken program
	// recompiles (and fails) afresh.
	for i := 0; i < 2; i++ {
		if st, _ := post(t, ts.Client(), ts.URL+"/profile", "int main( {", nil); st != http.StatusBadRequest {
			t.Fatalf("broken submission %d: status = %d, want 400", i, st)
		}
	}
	stats = s.Stats()
	if stats.CompileMisses != 3 || stats.CompileEntries != 1 {
		t.Errorf("after two failed compiles: misses = %d entries = %d, want 3 misses and still 1 entry",
			stats.CompileMisses, stats.CompileEntries)
	}

	// The new counters are part of the /statz wire format.
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"compile_cache_hits", "compile_cache_misses",
		"compile_cache_evicted", "compile_cache_entries", "compile_cache_bytes",
		"inccache_lookups", "inccache_hits", "inccache_recorded",
		"inccache_records", "inccache_evicted", "inccache_corrupt"} {
		if _, ok := wire[field]; !ok {
			t.Errorf("/statz missing field %q", field)
		}
	}
}

// TestServeWarmStreamsByteIdentical pins the acceptance contract for warm
// traffic: with every cache layer on and a pinned clock, a warm submission's
// NDJSON response is byte-identical to the cold one — through the whole-job
// replay path and through the compile-cache + inccache re-execution path.
func TestServeWarmStreamsByteIdentical(t *testing.T) {
	t.Run("job-cache-replay", func(t *testing.T) {
		s, ts := newTestServer(t, Config{
			Workers: 1, JobCache: 8, CompileCache: 8,
			IncCache: openServeStore(t), Now: fixedClock(),
		})
		st1, cold := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", sealedProg, nil)
		st2, warm := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", sealedProg, nil)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("statuses = %d, %d", st1, st2)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm stream differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
		}
		if stats := s.Stats(); stats.CacheHits != 1 {
			t.Errorf("job cache hits = %d, want 1", stats.CacheHits)
		}
	})

	t.Run("reexecution-via-caches", func(t *testing.T) {
		// No job cache: the warm submission actually re-executes, through
		// the shared compiled program and the inccache's replayed extents.
		s, ts := newTestServer(t, Config{
			Workers: 1, CompileCache: 8,
			IncCache: openServeStore(t), Now: fixedClock(),
		})
		st1, cold := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", sealedProg, nil)
		afterCold := s.Stats()
		st2, warm := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", sealedProg, nil)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("statuses = %d, %d", st1, st2)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("re-executed warm stream differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
		}
		stats := s.Stats()
		if stats.CompileHits != 1 || stats.CompileMisses != 1 {
			t.Errorf("compile cache hits/misses = %d/%d, want 1/1", stats.CompileHits, stats.CompileMisses)
		}
		if afterCold.IncRecorded == 0 {
			t.Errorf("cold run recorded no extents")
		}
		// The warm run replays extents the cold run recorded, so it hits
		// strictly more than the cold run's own within-run hits.
		if warmHits := stats.IncHits - afterCold.IncHits; warmHits <= afterCold.IncHits {
			t.Errorf("warm run hit %d extents, cold run hit %d — no cross-run replay", warmHits, afterCold.IncHits)
		}
		if stats.IncRecorded != afterCold.IncRecorded {
			t.Errorf("warm run re-recorded extents: %d -> %d", afterCold.IncRecorded, stats.IncRecorded)
		}
	})
}

// TestServeBundleSubmission pins the precompiled-IR path: a KRIB1 bundle
// POSTed to /v1/jobs produces the same result stream as its source, damaged
// bundles are refused with the parse taxonomy, and /profile stays
// source-only.
func TestServeBundleSubmission(t *testing.T) {
	prog, err := kremlin.Compile("q.kr", quickProg)
	if err != nil {
		t.Fatal(err)
	}
	bundle := string(prog.EncodeBundle())
	hdr := map[string]string{"Content-Type": bundleContentType}

	_, ts := newTestServer(t, Config{Workers: 2})
	stSrc, evsSrc := post(t, ts.Client(), ts.URL+"/v1/jobs?name=q.kr", quickProg, nil)
	stIR, evsIR := post(t, ts.Client(), ts.URL+"/v1/jobs", bundle, hdr)
	if stSrc != http.StatusOK || stIR != http.StatusOK {
		t.Fatalf("statuses = %d (src), %d (bundle), want 200/200 (bundle events %v)", stSrc, stIR, evsIR)
	}
	if !sameEvents(stripDone(t, evsSrc), stripDone(t, evsIR)) {
		t.Fatalf("bundle stream differs from source stream:\n%v\nvs\n%v", evsSrc, evsIR)
	}

	// A mislabeled body is refused before admission.
	st, evs := post(t, ts.Client(), ts.URL+"/v1/jobs", "not a bundle", hdr)
	if st != http.StatusBadRequest || evs[0].Kind != "parse_error" {
		t.Fatalf("garbage bundle: status = %d kind = %q, want 400/parse_error", st, evs[0].Kind)
	}

	// A corrupted bundle passes the magic check but fails validation.
	mut := []byte(bundle)
	mut[len(mut)/2] ^= 0x40
	st, evs = post(t, ts.Client(), ts.URL+"/v1/jobs", string(mut), hdr)
	if st != http.StatusBadRequest || evs[len(evs)-1].Kind != "parse_error" {
		t.Fatalf("corrupt bundle: status = %d events = %v, want 400/parse_error", st, evs)
	}

	// The legacy endpoint does not accept bundles.
	st, evs = post(t, ts.Client(), ts.URL+"/profile", bundle, hdr)
	if st != http.StatusBadRequest || evs[0].Kind != "parse_error" {
		t.Fatalf("bundle at /profile: status = %d kind = %q, want 400/parse_error", st, evs[0].Kind)
	}
}

// TestServeInccacheTenantIsolation pins the shared-store contract: repeat
// traffic within a tenant replays extents, a different tenant's identical
// program does not — tenants share the store's budget, never its records.
func TestServeInccacheTenantIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, IncCache: openServeStore(t)})
	hdrA := map[string]string{"X-Kremlin-Tenant": "alice"}
	hdrB := map[string]string{"X-Kremlin-Tenant": "bob"}

	if st, _ := post(t, ts.Client(), ts.URL+"/profile?name=s.kr", sealedProg, hdrA); st != http.StatusOK {
		t.Fatalf("alice cold: status = %d", st)
	}
	afterColdA := s.Stats()
	if afterColdA.IncRecorded == 0 {
		t.Fatalf("alice's cold run recorded nothing: %+v", afterColdA)
	}
	// A cold run's within-run hits (later iterations replaying extents the
	// earlier ones recorded) are the baseline every fresh tenant reproduces.
	coldHits := afterColdA.IncHits

	if st, _ := post(t, ts.Client(), ts.URL+"/profile?name=s.kr", sealedProg, hdrA); st != http.StatusOK {
		t.Fatalf("alice warm: status = %d", st)
	}
	afterWarmA := s.Stats()
	if warmHits := afterWarmA.IncHits - coldHits; warmHits <= coldHits {
		t.Fatalf("alice's repeat run did not replay across runs: warm %d vs cold %d", warmHits, coldHits)
	}
	if afterWarmA.IncRecorded != afterColdA.IncRecorded {
		t.Fatalf("alice's warm run re-recorded: %+v", afterWarmA)
	}

	if st, _ := post(t, ts.Client(), ts.URL+"/profile?name=s.kr", sealedProg, hdrB); st != http.StatusOK {
		t.Fatalf("bob: status = %d", st)
	}
	afterB := s.Stats()
	// Bob's run behaves exactly like a cold tenant: only within-run hits,
	// never replays of alice's records.
	if bobHits := afterB.IncHits - afterWarmA.IncHits; bobHits != coldHits {
		t.Fatalf("bob hit %d extents, a cold tenant hits %d — cross-tenant replay", bobHits, coldHits)
	}
	if afterB.IncRecorded <= afterWarmA.IncRecorded {
		t.Fatalf("bob's cold run recorded nothing new: %+v", afterB)
	}
	if afterB.IncRecords <= afterColdA.IncRecords {
		t.Fatalf("store did not grow across tenants: %d -> %d", afterColdA.IncRecords, afterB.IncRecords)
	}
}

// TestServeFrontCache: a one-helper edit resubmitted after its base misses
// the per-function front cache only on the edited helper, and streams
// exactly what a daemon without caches streams. The same program as an IR
// bundle then hits on every function.
func TestServeFrontCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CompileCache: 8, Now: fixedClock()})
	_, cold := newTestServer(t, Config{Workers: 1, Now: fixedClock()})
	edit := strings.Replace(sealedProg, "s = s + b * i;", "s = s + b * i + 1;", 1)

	if st, _ := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", sealedProg, nil); st != http.StatusOK {
		t.Fatalf("base: status %d", st)
	}
	base := s.Stats()
	if base.FrontMisses != 12 || base.FrontHits != 0 || base.FrontEntries != 12 {
		t.Errorf("base: front cache hits/misses/entries = %d/%d/%d, want 0/12/12 (four lookups for each of three functions)",
			base.FrontHits, base.FrontMisses, base.FrontEntries)
	}
	if base.FrontIRMisses != 3 || base.FrontAbsintMisses != 6 || base.FrontModRefMisses != 3 {
		t.Errorf("base: IR/absint/modref misses = %d/%d/%d, want 3/6/3",
			base.FrontIRMisses, base.FrontAbsintMisses, base.FrontModRefMisses)
	}
	if base.FrontBytes <= 0 {
		t.Errorf("base: front cache bytes = %d, want the entries' estimated size", base.FrontBytes)
	}
	st, warm := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", edit, nil)
	if st != http.StatusOK {
		t.Fatalf("edit: status %d", st)
	}
	stats := s.Stats()
	if m, h := stats.FrontMisses-base.FrontMisses, stats.FrontHits-base.FrontHits; m != 4 || h != 8 {
		t.Errorf("edit: front cache misses/hits = %d/%d, want 4/8 (only mix misses)", m, h)
	}
	// mix alone is lowered again; main, after it, reuses its IR at a new
	// offset.
	for _, k := range []struct {
		kind         string
		miss, hit    uint64
		wantM, wantH uint64
	}{
		{"ir", stats.FrontIRMisses - base.FrontIRMisses, stats.FrontIRHits - base.FrontIRHits, 1, 2},
		{"absint", stats.FrontAbsintMisses - base.FrontAbsintMisses, stats.FrontAbsintHits - base.FrontAbsintHits, 2, 4},
		{"modref", stats.FrontModRefMisses - base.FrontModRefMisses, stats.FrontModRefHits - base.FrontModRefHits, 1, 2},
	} {
		if k.miss != k.wantM || k.hit != k.wantH {
			t.Errorf("edit: %s misses/hits = %d/%d, want %d/%d", k.kind, k.miss, k.hit, k.wantM, k.wantH)
		}
	}
	if _, want := rawPost(t, cold.Client(), cold.URL+"/v1/jobs?name=s.kr", edit, nil); !bytes.Equal(warm, want) {
		t.Errorf("edit through the front cache streams differently:\n--- uncached ---\n%s\n--- front cache ---\n%s", want, warm)
	}

	p, err := kremlin.Compile("s.kr", edit)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if st, _ := rawPost(t, ts.Client(), ts.URL+"/v1/jobs?name=s.kr", string(p.EncodeBundle()),
		map[string]string{"Content-Type": "application/x-kremlin-ir"}); st != http.StatusOK {
		t.Fatalf("bundle: status %d", st)
	}
	after := s.Stats()
	if after.CompileMisses != before.CompileMisses+1 {
		t.Errorf("bundle did not compile: compile misses %d -> %d", before.CompileMisses, after.CompileMisses)
	}
	if m := after.FrontMisses - before.FrontMisses; m != 0 {
		t.Errorf("bundle of an already compiled program missed the front cache %d times, want 0", m)
	}
	if n := after.FrontIRHits + after.FrontIRMisses - before.FrontIRHits - before.FrontIRMisses; n != 0 {
		t.Errorf("bundle looked up %d lowered functions, want 0 (a bundle arrives lowered)", n)
	}

	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"front_cache_hits", "front_cache_misses", "front_cache_entries", "front_cache_bytes",
		"front_cache_ir_hits", "front_cache_ir_misses", "front_cache_absint_hits", "front_cache_absint_misses",
		"front_cache_modref_hits", "front_cache_modref_misses"} {
		if _, ok := wire[field]; !ok {
			t.Errorf("/statz missing field %q", field)
		}
	}
}
