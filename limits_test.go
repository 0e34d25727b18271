package kremlin_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/bytecode"
	"kremlin/internal/interp"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
)

// longProg runs a few hundred thousand interpreter steps — far past the
// periodic liveness poll interval (2^14 instructions), so cancellation
// and cap checks always get a chance to fire.
const longProg = `
int main() {
	int acc = 0;
	for (int i = 0; i < 100000; i++) {
		acc = acc + i % 7;
	}
	return acc;
}
`

// hungryProg allocates a large local array, hitting a heap cap at the
// allocation site rather than at a liveness poll.
const hungryProg = `
int main() {
	int a[100000];
	for (int i = 0; i < 100000; i++) {
		a[i] = i;
	}
	return a[9];
}
`

// callProg spends its steps in a loop body that calls, loads and stores in
// one block — an exact block, whose HCPA template the VM replays in runs
// cut at each call — and stores across many shadow pages, so budget stops
// and shadow-cap polls land inside exact blocks.
const callProg = `
int g[200000];
int f(int x) {
	return x * 3 + 1;
}
int main() {
	int acc = 0;
	for (int i = 0; i < 40000; i++) {
		g[(i * 4099) % 200000] = f(i) + acc;
		acc = acc + g[(i * 7) % 200000] + f(acc % 13);
	}
	return acc % 1000;
}
`

// allocProg computes an array size and allocates it in one block, so a
// heap-cap stop at the allocation lands inside an exact block with
// earlier work pending.
const allocProg = `
int g = 7;
int main() {
	int n = g * g + 3;
	int a[n * 1000];
	a[0] = n;
	return a[0];
}
`

func compileT(t *testing.T, src string) *kremlin.Program {
	t.Helper()
	prog, err := kremlin.Compile("limits_test.kr", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRunCancellation(t *testing.T) {
	prog := compileT(t, longProg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first poll must stop the run
	_, _, err := prog.Profile(&kremlin.RunConfig{Ctx: ctx})
	if !errors.Is(err, limits.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if kremlin.Classify(err) != kremlin.KindLimit {
		t.Errorf("Classify(%v) = %v, want KindLimit", err, kremlin.Classify(err))
	}
	if kremlin.ExitCodeFor(err) != kremlin.ExitLimit {
		t.Errorf("ExitCodeFor(%v) = %d, want %d", err, kremlin.ExitCodeFor(err), kremlin.ExitLimit)
	}
}

func TestRunDeadline(t *testing.T) {
	prog := compileT(t, `
int main() {
	int acc = 0;
	for (int i = 0; i < 100000000; i++) {
		acc = acc + i;
	}
	return acc;
}
`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := prog.Profile(&kremlin.RunConfig{Ctx: ctx})
	if !errors.Is(err, limits.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// The run must stop shortly after the deadline, not drift to the end
	// of the 10^8-iteration loop.
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline overrun: run took %v", e)
	}
}

func TestRunBudget(t *testing.T) {
	prog := compileT(t, longProg)
	_, _, err := prog.Profile(&kremlin.RunConfig{MaxSteps: 50_000})
	if !errors.Is(err, limits.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunHeapCap(t *testing.T) {
	prog := compileT(t, hungryProg)
	_, _, err := prog.Profile(&kremlin.RunConfig{MaxHeapWords: 1000})
	if !errors.Is(err, limits.ErrMemCap) {
		t.Fatalf("err = %v, want ErrMemCap", err)
	}
}

func TestRunShadowPageCap(t *testing.T) {
	prog := compileT(t, hungryProg)
	_, _, err := prog.Profile(&kremlin.RunConfig{MaxShadowPages: 4})
	if !errors.Is(err, limits.ErrMemCap) {
		t.Fatalf("err = %v, want ErrMemCap", err)
	}
}

// TestGprofPrefixInvariants pins cancellation correctness: a run stopped
// at instruction N must be a prefix of the full run — identical across
// repeats (determinism), never counting more work or more region
// instances than the uncancelled execution.
func TestGprofPrefixInvariants(t *testing.T) {
	prog := compileT(t, longProg)
	full, err := prog.RunGprof(nil)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 50_000
	partial, err := prog.RunGprof(&kremlin.RunConfig{MaxSteps: budget})
	if !errors.Is(err, limits.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if partial == nil {
		t.Fatal("budget-limited run returned no partial result")
	}
	if partial.Steps <= budget {
		t.Errorf("partial.Steps = %d, want just past the %d budget", partial.Steps, budget)
	}
	if partial.Work >= full.Work {
		t.Errorf("partial work %d not below full work %d", partial.Work, full.Work)
	}
	if len(partial.Gprof) > len(full.Gprof) {
		t.Fatalf("partial run saw %d regions, full run %d", len(partial.Gprof), len(full.Gprof))
	}
	for i, pe := range partial.Gprof {
		fe := full.Gprof[i]
		if pe.RegionID != fe.RegionID {
			t.Fatalf("region order diverged at %d: %d vs %d", i, pe.RegionID, fe.RegionID)
		}
		if pe.Count > fe.Count {
			t.Errorf("region %d: partial count %d exceeds full count %d", pe.RegionID, pe.Count, fe.Count)
		}
		if pe.Total > fe.Total {
			t.Errorf("region %d: partial total %d exceeds full total %d", pe.RegionID, pe.Total, fe.Total)
		}
	}

	// Same budget, same prefix: the cut is positional, not timing-based.
	again, err := prog.RunGprof(&kremlin.RunConfig{MaxSteps: budget})
	if !errors.Is(err, limits.ErrBudgetExceeded) {
		t.Fatal(err)
	}
	if again.Steps != partial.Steps || again.Work != partial.Work {
		t.Fatalf("re-run diverged: steps %d/%d work %d/%d",
			again.Steps, partial.Steps, again.Work, partial.Work)
	}
	for i := range partial.Gprof {
		if partial.Gprof[i] != again.Gprof[i] {
			t.Fatalf("re-run region %d diverged: %+v vs %+v", i, partial.Gprof[i], again.Gprof[i])
		}
	}
}

// TestEnginePrefixParity pins the engine contract for limit stops: a run
// stopped by the budget or the heap cap must cut at the *same position*
// under the bytecode VM as under the tree-walking interpreter — same
// error, same step counter, same work — including budgets that land on
// either side of the shared 2^14 liveness-poll interval
// (limits.LiveCheckInterval, used identically by both engines).
func TestEnginePrefixParity(t *testing.T) {
	prog := compileT(t, longProg)
	budgets := []uint64{
		50_000,
		limits.LiveCheckInterval - 1,
		limits.LiveCheckInterval,
		limits.LiveCheckInterval + 1,
		3 * limits.LiveCheckInterval,
	}
	for _, b := range budgets {
		vres, verr := prog.RunGprof(&kremlin.RunConfig{MaxSteps: b})
		tres, terr := prog.RunGprof(&kremlin.RunConfig{MaxSteps: b, Engine: kremlin.EngineTree})
		if !errors.Is(verr, limits.ErrBudgetExceeded) || !errors.Is(terr, limits.ErrBudgetExceeded) {
			t.Fatalf("budget %d: vm err %v, tree err %v", b, verr, terr)
		}
		if verr.Error() != terr.Error() {
			t.Errorf("budget %d: error text diverged:\nvm:   %v\ntree: %v", b, verr, terr)
		}
		if vres.Steps != tres.Steps || vres.Work != tres.Work {
			t.Errorf("budget %d: partial counters diverged: vm steps/work %d/%d, tree %d/%d",
				b, vres.Steps, vres.Work, tres.Steps, tres.Work)
		}
	}

	hungry := compileT(t, hungryProg)
	vres, verr := hungry.Run(&kremlin.RunConfig{MaxHeapWords: 1000})
	tres, terr := hungry.Run(&kremlin.RunConfig{MaxHeapWords: 1000, Engine: kremlin.EngineTree})
	if !errors.Is(verr, limits.ErrMemCap) || !errors.Is(terr, limits.ErrMemCap) {
		t.Fatalf("heap cap: vm err %v, tree err %v", verr, terr)
	}
	if verr.Error() != terr.Error() {
		t.Errorf("heap cap: error text diverged:\nvm:   %v\ntree: %v", verr, terr)
	}
	if vres.Steps != tres.Steps {
		t.Errorf("heap cap: partial steps diverged: vm %d, tree %d", vres.Steps, tres.Steps)
	}
}

// TestEngineHCPAPrefixParity extends TestEnginePrefixParity's contract to
// HCPA runs, whose blocks replay their shadow updates (StepBlock) between
// liveness polls. The same budgets must cut the profiled run at the same
// step with the same work on both engines — on longProg, on arrayProg,
// whose loop bodies load and store on the batched path, and on callProg,
// whose exact loop body is cut at every position by a run of consecutive
// budgets, and a heap-cap stop at an allocation must carry the same
// partial counters. The shadow-page cap is polled only at liveness boundaries; no
// fast block spans one, and an exact block replays its pending updates
// before each poll, so both engines see the same page count at every
// poll: the error text (page count and step) and the partial counters must
// match.
func TestEngineHCPAPrefixParity(t *testing.T) {
	budgets := []uint64{
		50_000,
		limits.LiveCheckInterval - 1,
		limits.LiveCheckInterval,
		limits.LiveCheckInterval + 1,
		3 * limits.LiveCheckInterval,
	}
	exactBudgets := append([]uint64(nil), budgets...)
	for b := uint64(50_000); b < 50_030; b++ {
		exactBudgets = append(exactBudgets, b)
	}
	for _, src := range []string{longProg, arrayProg, callProg} {
		p := compileT(t, src)
		bs := budgets
		if src == callProg {
			bs = exactBudgets
		}
		for _, b := range bs {
			vres, tres, verr, terr := hcpaBothEngines(p, interp.Config{MaxSteps: b})
			if !errors.Is(verr, limits.ErrBudgetExceeded) || !errors.Is(terr, limits.ErrBudgetExceeded) {
				t.Fatalf("budget %d: vm err %v, tree err %v", b, verr, terr)
			}
			if verr.Error() != terr.Error() {
				t.Errorf("budget %d: error text diverged:\nvm:   %v\ntree: %v", b, verr, terr)
			}
			if partialCounters(vres) != partialCounters(tres) {
				t.Errorf("budget %d: partial counters diverged: vm %v, tree %v", b, partialCounters(vres), partialCounters(tres))
			}
		}
	}

	for _, src := range []string{hungryProg, callProg} {
		for _, pages := range []int{1, 4, 16} {
			shadowCapParity(t, compileT(t, src), pages)
		}
	}

	vres, tres, verr, terr := hcpaBothEngines(compileT(t, allocProg), interp.Config{MaxHeapWords: 1000})
	if !errors.Is(verr, limits.ErrMemCap) || !errors.Is(terr, limits.ErrMemCap) {
		t.Fatalf("heap cap: vm err %v, tree err %v", verr, terr)
	}
	if verr.Error() != terr.Error() || partialCounters(vres) != partialCounters(tres) {
		t.Errorf("heap cap: stops diverged: vm %v %v, tree %v %v", verr, partialCounters(vres), terr, partialCounters(tres))
	}
}

// faultProgFmt faults at iteration kd (integer division by zero) or ki
// (index out of range) of a loop whose long body is one fused block; a
// knob set past the loop's iterations never fires.
const faultProgFmt = `
int kd = %d;
int ki = %d;
int a[64];
int main() {
	int acc = 1;
	for (int i = 0; i < %d; i++) {
		int x = i * 3 + acc %% 7;
		int y = x * x - i;
		acc = (acc + y / (kd - i)) %% 1000003;
		acc = acc + a[i %% 32 + 64 * (i / ki)];
		a[i %% 64] = acc %% 101;
		acc = acc + x * 5 - y %% 11;
	}
	return acc;
}
`

// TestEngineFaultParity pins runtime faults in a fused block that
// straddles a liveness poll. Such a block runs its exact range, which must
// report the tree engine's error at the tree engine's step: in plain,
// gprof and HCPA mode, with no budget and with a budget at the poll, the
// error text and any partial counters must match between engines.
func TestEngineFaultParity(t *testing.T) {
	const never = 1 << 40
	src := func(kd, ki, n int) string { return fmt.Sprintf(faultProgFmt, kd, ki, n) }
	steps := func(n int) uint64 {
		res, err := compileT(t, src(never, never, n)).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps
	}
	// An iteration costs p steps and the rest of the run c, so the
	// iteration running step LiveCheckInterval is first or first+1 (c also
	// counts the loop's exit test and the return).
	p := steps(2) - steps(1)
	c := steps(1) - p
	first := int((limits.LiveCheckInterval - 1 - c) / p)
	for k := first - 1; k <= first+1; k++ {
		for _, knobs := range [][2]int{{k, never}, {never, k}} {
			prog := compileT(t, src(knobs[0], knobs[1], 4*first))
			for _, budget := range []uint64{0, limits.LiveCheckInterval} {
				name := fmt.Sprintf("kd=%d ki=%d budget=%d", knobs[0], knobs[1], budget)
				cfg := func(e kremlin.Engine) *kremlin.RunConfig {
					return &kremlin.RunConfig{MaxSteps: budget, Engine: e}
				}
				vres, verr := prog.Run(cfg(kremlin.EngineVM))
				tres, terr := prog.Run(cfg(kremlin.EngineTree))
				faultParity(t, "plain "+name, verr, terr, counters(vres), counters(tres))
				vres, verr = prog.RunGprof(cfg(kremlin.EngineVM))
				tres, terr = prog.RunGprof(cfg(kremlin.EngineTree))
				faultParity(t, "gprof "+name, verr, terr, counters(vres), counters(tres))
				vres, tres, verr, terr = hcpaBothEngines(prog, interp.Config{MaxSteps: budget})
				faultParity(t, "hcpa "+name, verr, terr, counters(vres), counters(tres))
			}
		}
	}
}

// faultParity fails unless both engines stopped with the same error text
// and the same partial counters.
func faultParity(t *testing.T, name string, verr, terr error, vc, tc string) {
	t.Helper()
	if verr == nil || terr == nil {
		t.Fatalf("%s: vm err %v, tree err %v; want both to stop", name, verr, terr)
	}
	if verr.Error() != terr.Error() {
		t.Errorf("%s: error text diverged:\nvm:   %v\ntree: %v", name, verr, terr)
	}
	if vc != tc {
		t.Errorf("%s: partial counters diverged: vm %s, tree %s", name, vc, tc)
	}
}

// counters renders a stopped run's partial result (nil after a runtime
// error): steps, work, shadow pages and writes, and the gprof entries.
func counters(r *interp.Result) string {
	if r == nil {
		return "no result"
	}
	return fmt.Sprint(partialCounters(r), r.Gprof)
}

// shadowCapParity profiles p under a shadow-page cap on both engines and
// compares the stops.
func shadowCapParity(t *testing.T, p *kremlin.Program, pages int) {
	t.Helper()
	vres, tres, verr, terr := hcpaBothEngines(p, interp.Config{Opts: kremlib.Options{MaxShadowPages: pages}})
	if !errors.Is(verr, limits.ErrMemCap) || !errors.Is(terr, limits.ErrMemCap) {
		t.Fatalf("shadow cap %d: vm err %v, tree err %v", pages, verr, terr)
	}
	if verr.Error() != terr.Error() {
		t.Errorf("shadow cap %d: error text diverged:\nvm:   %v\ntree: %v", pages, verr, terr)
	}
	if partialCounters(vres) != partialCounters(tres) {
		t.Errorf("shadow cap %d: partial counters diverged: vm %v, tree %v", pages, partialCounters(vres), partialCounters(tres))
	}
}

// hcpaBothEngines profiles p under the limits in cfg on the bytecode VM
// and on the tree engine. It calls the engines directly, because
// Program.Profile drops the partial result of a stopped run.
func hcpaBothEngines(p *kremlin.Program, cfg interp.Config) (vres, tres *interp.Result, verr, terr error) {
	cfg.Mode, cfg.Prog, cfg.Instr, cfg.Out = interp.HCPA, p.Regions, p.Instr, io.Discard
	vres, verr = bytecode.Run(p.Bytecode(), cfg)
	tres, terr = interp.Run(p.Module, cfg)
	return vres, tres, verr, terr
}

// partialCounters are the fields of an HCPA limit-stop result: steps,
// work, live shadow pages and shadow writes.
func partialCounters(r *interp.Result) [4]uint64 {
	return [4]uint64{r.Steps, r.Work, uint64(r.ShadowPages), r.ShadowWrites}
}

// arrayProg spends nearly all of its steps in array accesses whose
// bounds the abstract interpreter proves, so the default build executes
// unchecked opcodes on the hot path while -absint=off keeps every check.
const arrayProg = `
int a[1000];
int main() {
	int acc = 0;
	for (int r = 0; r < 100; r++) {
		for (int i = 0; i < 1000; i++) {
			a[i] = a[i] + i;
		}
		acc = acc + a[r];
		print("round", r, acc);
	}
	return acc;
}
`

// TestAbsintOffPrefixParity: under an instruction budget the -absint=off
// build must stop at exactly the same instruction as the default build —
// same partial counters, same error text, same output prefix — including
// at the awkward liveness-poll boundaries. Bounds-check elimination may
// only change speed, never the observable step stream.
func TestAbsintOffPrefixParity(t *testing.T) {
	on := compileT(t, arrayProg)
	off, err := kremlin.CompileWith("limits_test.kr", arrayProg, kremlin.CompileOptions{DisableAbsint: true})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []uint64{
		10_000,
		limits.LiveCheckInterval - 1,
		limits.LiveCheckInterval,
		limits.LiveCheckInterval + 1,
		5 * limits.LiveCheckInterval,
	}
	for _, b := range budgets {
		var onOut, offOut strings.Builder
		vres, verr := on.Run(&kremlin.RunConfig{MaxSteps: b, Out: &onOut})
		ores, oerr := off.Run(&kremlin.RunConfig{MaxSteps: b, Out: &offOut})
		if !errors.Is(verr, limits.ErrBudgetExceeded) || !errors.Is(oerr, limits.ErrBudgetExceeded) {
			t.Fatalf("budget %d: absint-on err %v, absint-off err %v", b, verr, oerr)
		}
		if verr.Error() != oerr.Error() {
			t.Errorf("budget %d: error text diverged:\non:  %v\noff: %v", b, verr, oerr)
		}
		if vres.Steps != ores.Steps || vres.Work != ores.Work {
			t.Errorf("budget %d: partial counters diverged: on steps/work %d/%d, off %d/%d",
				b, vres.Steps, vres.Work, ores.Steps, ores.Work)
		}
		if onOut.String() != offOut.String() {
			t.Errorf("budget %d: output prefix diverged:\n--- on ---\n%s--- off ---\n%s",
				b, onOut.String(), offOut.String())
		}
	}
}
