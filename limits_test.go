package kremlin_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"kremlin"
	"kremlin/internal/bytecode"
	"kremlin/internal/interp"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
	"kremlin/internal/parallel"
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
// HCPA runs, whose batched blocks replay their shadow updates (StepBlock)
// between liveness polls. The same budgets must cut the profiled run at the
// same step with the same work on both engines — on longProg and on
// arrayProg, whose loop bodies load and store on the batched path. The
// shadow-page cap is polled only at liveness boundaries, and no batched
// block spans one, so both engines see the same page count at every poll:
// the error text (page count and step) and the partial counters must match.
func TestEngineHCPAPrefixParity(t *testing.T) {
	budgets := []uint64{
		50_000,
		limits.LiveCheckInterval - 1,
		limits.LiveCheckInterval,
		limits.LiveCheckInterval + 1,
		3 * limits.LiveCheckInterval,
	}
	for _, src := range []string{longProg, arrayProg} {
		p := compileT(t, src)
		for _, b := range budgets {
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

	hungry := compileT(t, hungryProg)
	for _, pages := range []int{1, 4, 16} {
		vres, tres, verr, terr := hcpaBothEngines(hungry, interp.Config{Opts: kremlib.Options{MaxShadowPages: pages}})
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

// TestShardPanicFailsJob injects a panic into one shard goroutine via the
// fault hook and requires the job to fail with a PanicError — promptly,
// without deadlocking the stitcher or killing the process.
func TestShardPanicFailsJob(t *testing.T) {
	prog := compileT(t, longProg)
	done := make(chan error, 1)
	go func() {
		_, err := parallel.Run(prog.Module, prog.Regions, prog.Instr, parallel.Config{
			Shards: 4,
			ShardHook: func(shard int) {
				if shard == 2 {
					panic("chaos: injected shard panic")
				}
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *parallel.PanicError", err)
		}
		if pe.Shard != 2 {
			t.Errorf("PanicError.Shard = %d, want 2", pe.Shard)
		}
		if len(pe.Stack) == 0 {
			t.Error("PanicError carries no stack trace")
		}
		if kremlin.Classify(err) != kremlin.KindRuntime {
			t.Errorf("Classify = %v, want KindRuntime", kremlin.Classify(err))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded run deadlocked after shard panic")
	}
}

// TestShardStallCancelled proves a stalled shard cannot wedge the job:
// the caller's deadline cancels every sibling and the stall's own run.
func TestShardCancellation(t *testing.T) {
	prog := compileT(t, longProg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := prog.ProfileSharded(&kremlin.RunConfig{Ctx: ctx}, 4)
	if !errors.Is(err, limits.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestShardBudget: a budget violation inside one shard fails the whole
// job with the budget error, not the sibling-cancellation cascade.
func TestShardBudget(t *testing.T) {
	prog := compileT(t, longProg)
	_, _, err := prog.ProfileSharded(&kremlin.RunConfig{MaxSteps: 50_000}, 4)
	if !errors.Is(err, limits.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
