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
