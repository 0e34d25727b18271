package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/irbundle"
	"kremlin/internal/profile"
	"kremlin/internal/serve/chaos"
)

// quickProg finishes in well under a million steps.
const quickProg = `
int a[500];
int main() {
	int acc = 0;
	for (int i = 0; i < 500; i++) {
		a[i] = i * 3;
	}
	for (int i = 0; i < 500; i++) {
		acc = acc + a[i];
	}
	print("acc", acc);
	return 0;
}
`

// slowProg runs long enough (hundreds of millions of steps) that any
// sane deadline or budget fires first.
const slowProg = `
int main() {
	int acc = 0;
	for (int i = 0; i < 100000000; i++) {
		acc = acc + i;
	}
	return acc;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// post POSTs a program and decodes the NDJSON event stream.
func post(t *testing.T, client *http.Client, url, src string, hdr map[string]string) (int, []Event) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(src))
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
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, evs
}

func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func TestServeHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, evs := post(t, ts.Client(), ts.URL+"/profile?name=quick.kr", quickProg, nil)
	if st != http.StatusOK {
		t.Fatalf("status = %d, want 200 (events %v)", st, evs)
	}
	want := []string{"output", "profile", "plan", "vet", "done"}
	got := eventTypes(evs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event sequence = %v, want %v", got, want)
	}
	if !strings.Contains(evs[0].Data, "acc") {
		t.Errorf("output event %q does not contain program output", evs[0].Data)
	}
	pe := evs[1]
	if pe.Work == 0 || pe.Steps == 0 || pe.DictEntries == 0 {
		t.Errorf("profile event missing metrics: %+v", pe)
	}
	raw, err := base64.StdEncoding.DecodeString(pe.KRPF2)
	if err != nil {
		t.Fatalf("profile payload is not base64: %v", err)
	}
	prof, err := profile.ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile payload is not KRPF2: %v", err)
	}
	if len(prof.Dict.Entries) != pe.DictEntries {
		t.Errorf("decoded dict entries = %d, event said %d", len(prof.Dict.Entries), pe.DictEntries)
	}
	if evs[2].EstSpeedup < 1 || len(evs[2].Recs) == 0 {
		t.Errorf("plan event implausible: %+v", evs[2])
	}
	if evs[3].Parallel+evs[3].Serial+evs[3].Unknown != len(evs[3].Loops) {
		t.Errorf("vet counts %d+%d+%d disagree with %d loops",
			evs[3].Parallel, evs[3].Serial, evs[3].Unknown, len(evs[3].Loops))
	}
}

// TestServeSharded: the daemon takes no shards parameter, so a client
// that sends ?shards=K has it ignored like any unknown parameter and gets
// the same event stream as a request without it.
func TestServeSharded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	stream := func(url string) string {
		st, evs := post(t, ts.Client(), url, quickProg, nil)
		if st != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200 (events %v)", url, st, evs)
		}
		var b strings.Builder
		for _, e := range evs {
			e.ElapsedMS = 0
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	plain := stream(ts.URL + "/profile")
	if sharded := stream(ts.URL + "/profile?shards=4"); sharded != plain {
		t.Errorf("?shards=4 changed the stream\n--- without ---\n%s--- with ---\n%s", plain, sharded)
	}
}

func TestServeErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2,
		// Tight budget for the "budget" case program; the others fail
		// before execution.
		MaxInsns:   200_000,
		JobTimeout: 5 * time.Second,
	})
	cases := []struct {
		name   string
		src    string
		status int
		kind   string
	}{
		{"parse", "int main( {", http.StatusBadRequest, "parse_error"},
		{"analysis", "int main() { return undefined_var; }", http.StatusBadRequest, "analysis_error"},
		// The runtime fault flows through an array cell so the abstract
		// interpreter cannot prove it and the lint gate stays quiet.
		{"runtime", "int a[1];\nint main() { a[0] = 0; return 1 / a[0]; }", http.StatusUnprocessableEntity, "runtime_error"},
		// A provable fault never reaches a worker: lint rejects at admission.
		{"lint", "int main() { int z = 0; return 1 / z; }", http.StatusUnprocessableEntity, "lint_error"},
		{"budget", slowProg, http.StatusRequestEntityTooLarge, "budget_exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, evs := post(t, ts.Client(), ts.URL+"/profile", tc.src, nil)
			if st != tc.status {
				t.Fatalf("status = %d, want %d (events %v)", st, tc.status, evs)
			}
			last := evs[len(evs)-1]
			if last.Type != "error" || last.Kind != tc.kind {
				t.Fatalf("final event = %+v, want error/%s", last, tc.kind)
			}
		})
	}
}

func TestServeTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    2,
		JobTimeout: 80 * time.Millisecond,
		MaxInsns:   1 << 62, // only the deadline can stop slowProg
	})
	st, evs := post(t, ts.Client(), ts.URL+"/profile", slowProg, nil)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (events %v)", st, evs)
	}
	if last := evs[len(evs)-1]; last.Kind != "timeout" {
		t.Fatalf("kind = %q, want timeout", last.Kind)
	}
}

// memProg touches ~400 KiB of shadow-tracked global state across enough
// steps that the periodic liveness poll (every 2^14 instructions)
// observes the page count.
const memProg = `
int a[50000];
int main() {
	for (int i = 0; i < 50000; i++) {
		a[i] = i;
	}
	return a[49999];
}
`

func TestServeMemCap(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:        2,
		MaxShadowPages: 4, // memProg needs ~100 pages
	})
	st, evs := post(t, ts.Client(), ts.URL+"/profile", memProg, nil)
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (events %v)", st, evs)
	}
	if last := evs[len(evs)-1]; last.Kind != "mem_cap_exceeded" {
		t.Fatalf("kind = %q, want mem_cap_exceeded", last.Kind)
	}
}

func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (events %v)", st, evs)
	}
	if evs[0].Kind != "body_too_large" {
		t.Fatalf("kind = %q, want body_too_large", evs[0].Kind)
	}
}

func TestServeBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if st, _ := post(t, ts.Client(), ts.URL+"/profile?personality=gpu", quickProg, nil); st != http.StatusBadRequest {
		t.Errorf("unknown personality: status = %d, want 400", st)
	}
}

// TestServeQueueShedding fills the single worker and the one queue slot
// with slow jobs, then submits a third and expects a 429 shed.
func TestServeQueueShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		JobTimeout: 2 * time.Second,
		MaxInsns:   1 << 62,
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.Client(), ts.URL+"/profile", slowProg, nil)
		}()
	}
	// Wait until one job occupies the worker and one sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.InFlight == 1 && st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never saturated: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	if st != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (events %v)", st, evs)
	}
	if evs[0].Kind != "queue_full" {
		t.Fatalf("kind = %q, want queue_full", evs[0].Kind)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Errorf("Stats.Shed = %d, want 1", got)
	}
	wg.Wait()
}

func TestServeRateLimit(t *testing.T) {
	clock := time.Now()
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	s, ts := newTestServer(t, Config{Workers: 2, RatePerSec: 1, RateBurst: 1, Now: now})
	hdrA := map[string]string{"X-Kremlin-Tenant": "alice"}
	hdrB := map[string]string{"X-Kremlin-Tenant": "bob"}
	if st, _ := post(t, ts.Client(), ts.URL+"/profile", quickProg, hdrA); st != http.StatusOK {
		t.Fatalf("first job: status = %d, want 200", st)
	}
	st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, hdrA)
	if st != http.StatusTooManyRequests || evs[0].Kind != "rate_limited" {
		t.Fatalf("tenant over budget: status = %d kind = %q, want 429/rate_limited", st, evs[0].Kind)
	}
	// Another tenant has its own bucket.
	if st, _ := post(t, ts.Client(), ts.URL+"/profile", quickProg, hdrB); st != http.StatusOK {
		t.Fatalf("other tenant: status = %d, want 200", st)
	}
	// Tokens refill with time.
	advance(1100 * time.Millisecond)
	if st, _ := post(t, ts.Client(), ts.URL+"/profile", quickProg, hdrA); st != http.StatusOK {
		t.Fatalf("after refill: status = %d, want 200", st)
	}
	if got := s.Stats().RateLimited; got != 1 {
		t.Errorf("Stats.RateLimited = %d, want 1", got)
	}
}

func TestServeDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A queued job admitted before the drain must still be serviced.
	type result struct {
		st  int
		evs []Event
	}
	resc := make(chan result, 1)
	go func() {
		st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
		resc <- result{st, evs}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil { // idempotent
		t.Fatalf("second drain: %v", err)
	}
	res := <-resc
	if res.st != http.StatusOK {
		t.Fatalf("pre-drain job: status = %d, want 200 (events %v)", res.st, res.evs)
	}

	// After the drain: health reports draining, new jobs are refused.
	hst, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hst.Body)
	hst.Body.Close()
	if hst.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status = %d, want 503", hst.StatusCode)
	}
	st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	if st != http.StatusServiceUnavailable || evs[0].Kind != "draining" {
		t.Fatalf("post-drain job: status = %d kind = %q, want 503/draining", st, evs[0].Kind)
	}
}

// TestServePanicIsolation injects a panic into the first job and proves
// the daemon answers it with a 500 diagnostic and keeps serving.
func TestServePanicIsolation(t *testing.T) {
	// Scan for a seed that panics job 1 and leaves job 2 alone — the
	// schedule is a pure function of (seed, seq), so this is cheap and
	// keeps the test deterministic without a special injector mode.
	inj := &chaos.Injector{Every: 2}
	for inj.Fault(1).Kind != chaos.Panic || inj.Fault(2).Kind != chaos.None {
		inj.Seed++
	}
	s, ts := newTestServer(t, Config{Workers: 1, Chaos: inj})
	st, evs := post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	if st != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (events %v)", st, evs)
	}
	last := evs[len(evs)-1]
	if last.Kind != "panic" || !strings.Contains(last.Detail, "injected panic") {
		t.Fatalf("final event = %+v, want panic diagnostic", last)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("Stats.Panics = %d, want 1", got)
	}

	// The worker survived the panic: the next (unfaulted) job runs clean
	// on the same daemon.
	st, evs = post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	if st != http.StatusOK {
		t.Fatalf("post-panic job: status = %d, want 200 (events %v)", st, evs)
	}
	if got := s.Stats().Completed; got != 2 {
		t.Errorf("Stats.Completed = %d, want 2", got)
	}
}

func TestStatzEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post(t, ts.Client(), ts.URL+"/profile", quickProg, nil)
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Errorf("statz = %+v, want accepted=1 completed=1", st)
	}
}

// faultingProg provably faults on every terminating run: the abstract
// interpreter pins the out-of-bounds index exactly.
const faultingProg = `
int a[10];
int main() {
	int i = 12;
	a[i] = 3;
	return a[0];
}
`

func TestServeLintAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	st, evs := post(t, ts.Client(), ts.URL+"/v1/jobs", faultingProg, nil)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (events %v)", st, evs)
	}
	last := evs[len(evs)-1]
	if last.Type != "error" || last.Kind != "lint_error" {
		t.Fatalf("final event = %+v, want error/lint_error", last)
	}
	if !strings.Contains(last.Detail, "out of range") {
		t.Errorf("detail %q does not name the fault", last.Detail)
	}
	if got := s.Stats().LintReject; got != 1 {
		t.Errorf("stats lint_rejected = %d, want 1", got)
	}

	// A clean program on the same server is unaffected.
	st, evs = post(t, ts.Client(), ts.URL+"/v1/jobs", quickProg, nil)
	if st != http.StatusOK {
		t.Fatalf("clean program status = %d, want 200 (events %v)", st, evs)
	}
}

func TestServeLintDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DisableLint: true})
	st, evs := post(t, ts.Client(), ts.URL+"/v1/jobs", faultingProg, nil)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (events %v)", st, evs)
	}
	last := evs[len(evs)-1]
	if last.Type != "error" || last.Kind != "runtime_error" {
		t.Fatalf("final event = %+v, want error/runtime_error (gate disabled)", last)
	}
	if got := s.Stats().LintReject; got != 0 {
		t.Errorf("stats lint_rejected = %d, want 0", got)
	}
}

// TestServeLintBundle proves the gate also covers precompiled IR bundles.
func TestServeLintBundle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	prog, err := kremlin.Compile("fault.kr", faultingProg)
	if err != nil {
		t.Fatal(err)
	}
	bundle := irbundle.Encode(prog.File, prog.Module)
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", bundleContentType)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bundle status = %d, want 422 (%s)", resp.StatusCode, body)
	}
	var e Event
	if err := json.Unmarshal(bytes.TrimSpace(body), &e); err != nil {
		t.Fatalf("bad response %q: %v", body, err)
	}
	if e.Kind != "lint_error" {
		t.Fatalf("bundle event = %+v, want lint_error", e)
	}
	if got := s.Stats().LintReject; got != 1 {
		t.Errorf("stats lint_rejected = %d, want 1", got)
	}
}

func TestTenantLimiter(t *testing.T) {
	l := newTenantLimiter(10, 2) // 10/sec, burst 2
	now := time.Now()
	if !l.Allow("a", now) || !l.Allow("a", now) {
		t.Fatal("burst of 2 refused")
	}
	if l.Allow("a", now) {
		t.Fatal("third immediate request allowed")
	}
	if !l.Allow("b", now) {
		t.Fatal("independent tenant refused")
	}
	if !l.Allow("a", now.Add(100*time.Millisecond)) {
		t.Fatal("refilled token refused")
	}
}
