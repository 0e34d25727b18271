package bench

import (
	"testing"

	"kremlin/internal/regions"
)

// TestAllBenchmarksCompileAndProfile is the suite gate: every workload
// must compile, run instrumented to completion, and produce a profile
// whose work matches a plain run.
func TestAllBenchmarksCompileAndProfile(t *testing.T) {
	progs := append(All(), Tracking())
	for _, b := range progs {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := Load(b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Program.Run(nil)
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			if res.Work == 0 {
				t.Fatal("no work")
			}
			if got := c.Profile.TotalWork(); got != res.Work {
				t.Errorf("profiled work %d != plain work %d", got, res.Work)
			}
			var loops int
			for _, st := range c.Summary.Executed {
				if st.Region.Kind == regions.LoopRegion {
					loops++
				}
			}
			if loops < 3 {
				t.Errorf("only %d executed loop regions; workload too trivial", loops)
			}
			t.Logf("%s: work=%d loops=%d dictEntries=%d rawRecords=%d",
				b.Name, res.Work, loops, len(c.Profile.Dict.Entries), c.Profile.Dict.RawCount)
		})
	}
}

// TestHCPABatchedCoverage pins how much of an HCPA run the bytecode VM
// batches: in every benchmark at least 99% of the steps (edge phis
// included) must replay from a template — fast blocks through one
// StepBlock, exact (call and allocation) blocks in runs cut at each call —
// rather than one Step per instruction. Only blocks without bytecode and
// blocks that sit at a budget or liveness-poll edge take per-instruction
// Steps.
func TestHCPABatchedCoverage(t *testing.T) {
	for _, b := range All() {
		c, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := c.Program.Profile(nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		frac := float64(res.BatchedSteps) / float64(res.BatchedSteps+res.SlowSteps)
		t.Logf("%s: %.2f%% of %d steps batched", b.Name, 100*frac, res.BatchedSteps+res.SlowSteps)
		if total := res.BatchedSteps + res.SlowSteps; total != res.Steps {
			t.Errorf("%s: batched+slow steps %d, want the run's %d", b.Name, total, res.Steps)
		}
		if frac < 0.99 {
			t.Errorf("%s: %.2f%% of HCPA steps batched, want >= 99%%", b.Name, 100*frac)
		}
	}
}
