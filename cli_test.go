package kremlin_test

// Builds the real CLI binaries and drives the documented workflow through
// them: kremlin-cc → kremlin-run → kremlin → kremlin-sim.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping CLI build")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir,
		"./cmd/kremlin-cc", "./cmd/kremlin-run", "./cmd/kremlin", "./cmd/kremlin-sim", "./cmd/kremlin-serve")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	bin := buildCLIs(t)
	src := filepath.Join(t.TempDir(), "demo.kr")
	prof := filepath.Join(t.TempDir(), "demo.krpf")
	program := `
float a[500];
float b[500];
void work() {
	for (int i = 0; i < 500; i++) {
		b[i] = a[i] * 3.0 + 1.0;
	}
}
int main() {
	for (int i = 0; i < 500; i++) { a[i] = float(i % 9); }
	work();
	print("done", b[499]);
	return 0;
}
`
	if err := os.WriteFile(src, []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}

	cc := runCLI(t, filepath.Join(bin, "kremlin-cc"), "-dump-regions", src)
	if !strings.Contains(cc, "loop regions") || !strings.Contains(cc, "func work") {
		t.Errorf("kremlin-cc output:\n%s", cc)
	}

	run := runCLI(t, filepath.Join(bin, "kremlin-run"), "-o", prof, src)
	if !strings.Contains(run, "done 13") { // 499%9=4 → 4*3+1
		t.Errorf("kremlin-run output:\n%s", run)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatalf("profile not written: %v", err)
	}

	plan := runCLI(t, filepath.Join(bin, "kremlin"), "-profile", prof, src)
	if !strings.Contains(plan, "loop work") || !strings.Contains(plan, "Self-P") {
		t.Errorf("kremlin plan output:\n%s", plan)
	}

	gp := runCLI(t, filepath.Join(bin, "kremlin-run"), "-mode=gprof", src)
	if !strings.Contains(gp, "self%") {
		t.Errorf("gprof mode output:\n%s", gp)
	}

	sim := runCLI(t, filepath.Join(bin, "kremlin-sim"), "-profile", prof, src)
	if !strings.Contains(sim, "best configuration") {
		t.Errorf("kremlin-sim output:\n%s", sim)
	}

	labels := runCLI(t, filepath.Join(bin, "kremlin"), "-labels", "-profile", prof, src)
	var label string
	for _, l := range strings.Split(labels, "\n") {
		if i := strings.Index(l, "loop work"); i > 0 {
			label = strings.TrimSpace(l[:i]) + " loop work"
		}
	}
	if label == "" {
		t.Fatalf("no loop label found in:\n%s", labels)
	}
	// Excluding the dominant region removes it from the replanned output.
	excluded := runCLI(t, filepath.Join(bin, "kremlin"), "-profile", prof, "-exclude", label, src)
	if strings.Contains(excluded, "loop work ") {
		t.Errorf("excluded region still planned:\n%s", excluded)
	}
}

// runCLIExit runs a CLI expected to fail and returns its exit code and
// combined output.
func runCLIExit(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestCLIExitCodes pins the exit-code taxonomy shared by kremlin and
// kremlin-run: 3 parse, 4 analysis, 5 runtime, 6 limit.
func TestCLIExitCodes(t *testing.T) {
	bin := buildCLIs(t)
	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parseBad := write("parse.kr", "int main( {")
	analysisBad := write("analysis.kr", "int main() { return nope; }")
	runtimeBad := write("runtime.kr", "int main() { int z = 0; return 1 / z; }")
	long := write("long.kr", `
int main() {
	int acc = 0;
	for (int i = 0; i < 100000000; i++) {
		acc = acc + i;
	}
	return acc;
}
`)

	krun := filepath.Join(bin, "kremlin-run")
	kpl := filepath.Join(bin, "kremlin")
	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		{"run-parse", krun, []string{parseBad}, 3},
		{"run-analysis", krun, []string{analysisBad}, 4},
		{"run-runtime", krun, []string{runtimeBad}, 5},
		{"run-budget", krun, []string{"-max-insns", "10000", long}, 6},
		{"run-timeout", krun, []string{"-timeout", "50ms", long}, 6},
		{"run-budget-gprof", krun, []string{"-mode=gprof", "-max-insns", "10000", long}, 6},
		{"plan-parse", kpl, []string{parseBad}, 3},
		{"plan-analysis", kpl, []string{analysisBad}, 4},
		{"plan-budget", kpl, []string{"-max-insns", "10000", long}, 6},
		{"plan-timeout", kpl, []string{"-timeout", "50ms", long}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runCLIExit(t, tc.bin, tc.args...)
			if code != tc.want {
				t.Errorf("%v: exit code = %d, want %d\n%s", tc.args, code, tc.want, out)
			}
		})
	}

	// A clean run still exits 0 with the new flags set generously.
	ok := write("ok.kr", "int main() { return 0; }")
	if code, out := runCLIExit(t, krun, "-timeout", "30s", "-o", filepath.Join(dir, "ok.krpf"), ok); code != 0 {
		t.Errorf("clean run: exit code = %d\n%s", code, out)
	}
}

// TestServeDaemonSmoke drives the real kremlin-serve binary end to end:
// start, wait healthy, POST a program, force a 429 burst, then SIGTERM
// and require a graceful drain.
func TestServeDaemonSmoke(t *testing.T) {
	bin := buildCLIs(t)
	addr := "127.0.0.1:18923"
	cmd := exec.Command(filepath.Join(bin, "kremlin-serve"),
		"-addr", addr, "-workers", "1", "-queue", "1", "-job-timeout", "2s")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v\n%s", err, logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	prog, err := os.ReadFile("examples/quickstart/quickstart.kr")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/profile?name=quickstart.kr", "text/plain", bytes.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /profile: status %d\n%s", resp.StatusCode, body)
	}
	for _, ev := range []string{`"event":"profile"`, `"event":"plan"`, `"event":"vet"`, `"event":"done"`} {
		if !strings.Contains(string(body), ev) {
			t.Errorf("response stream missing %s:\n%s", ev, body)
		}
	}

	// Burst: with one worker and a one-slot queue, concurrent slow jobs
	// must shed at least one 429.
	slow := []byte(`
int main() {
	int acc = 0;
	for (int i = 0; i < 100000000; i++) { acc = acc + i; }
	return acc;
}
`)
	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(base+"/profile", "text/plain", bytes.NewReader(slow))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[http.StatusTooManyRequests] == 0 {
		t.Errorf("burst produced no 429s: %v\n%s", codes, logs.String())
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\n%s", err, logs.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("daemon log missing drain confirmation:\n%s", logs.String())
	}
}
