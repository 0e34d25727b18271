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
// batches: at least 99% of the suite's body steps must replay through
// StepBlock rather than one Step per instruction. Blocks that call, allocate,
// or use rand or print stay per-instruction; in the suite they are rare.
func TestHCPABatchedCoverage(t *testing.T) {
	var batched, slow uint64
	for _, b := range All() {
		c, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := c.Program.Profile(nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.BatchedSteps == 0 {
			t.Errorf("%s: no batched steps", b.Name)
		}
		t.Logf("%s: %.2f%% of %d body steps batched", b.Name,
			100*float64(res.BatchedSteps)/float64(res.BatchedSteps+res.SlowSteps), res.BatchedSteps+res.SlowSteps)
		batched += res.BatchedSteps
		slow += res.SlowSteps
	}
	if frac := float64(batched) / float64(batched+slow); frac < 0.99 {
		t.Errorf("%.2f%% of HCPA body steps batched over the suite, want >= 99%%", 100*frac)
	}
}
