package eval

import "testing"

func TestDependenceBreakingAblationShape(t *testing.T) {
	rows, err := DependenceBreakingAblation()
	if err != nil {
		t.Fatal(err)
	}
	collapsed := 0
	for _, r := range rows {
		collapsed += r.LoopsCollapsed
		if r.PlanWithout > r.PlanWith+1 {
			t.Errorf("%s: plan grew without breaking: %d vs %d", r.Name, r.PlanWithout, r.PlanWith)
		}
	}
	// ep's reduction main loop (and others) must collapse without the
	// analysis — that's the paper's motivation for breaking them.
	if collapsed < 3 {
		t.Errorf("only %d loops collapsed; dependence breaking appears inert", collapsed)
	}
	for _, r := range rows {
		if r.Name == "ep" && r.LoopsCollapsed == 0 {
			t.Error("ep: the reduction main loop should collapse without breaking")
		}
	}
}

func TestCompressedPlanningAblationShape(t *testing.T) {
	rows, err := CompressedPlanningAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DictEntries <= 0 || r.DynamicRegions < uint64(r.DictEntries) {
			t.Errorf("%s: degenerate sizes %d/%d", r.Name, r.DictEntries, r.DynamicRegions)
		}
	}
}

func TestPersonalityComparisonShape(t *testing.T) {
	rows, err := PersonalityComparison()
	if err != nil {
		t.Fatal(err)
	}
	widerSomewhere := false
	for _, r := range rows {
		if r.CilkSize > r.OpenMPSize {
			widerSomewhere = true
		}
		if r.CilkSize < r.OpenMPSize {
			t.Errorf("%s: cilk plan (%d) smaller than openmp (%d)", r.Name, r.CilkSize, r.OpenMPSize)
		}
	}
	if !widerSomewhere {
		t.Error("cilk personality never admitted extra regions")
	}
}

func TestPortabilityMatrixShape(t *testing.T) {
	cells, err := PortabilityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(plan, machine string) float64 {
		for _, c := range cells {
			if c.Plan == plan && c.Machine == machine {
				return c.Geomean
			}
		}
		t.Fatalf("missing cell %s/%s", plan, machine)
		return 0
	}
	// The nesting-happy cilk plan must benefit more from the cheap
	// fine-grained machine than the conservative openmp plan does
	// (relative uplift), and every cell must beat serial.
	for _, c := range cells {
		if c.Geomean < 1 {
			t.Errorf("%s on %s: geomean %f < 1", c.Plan, c.Machine, c.Geomean)
		}
	}
	cilkUplift := get("cilk", "finegrained") / get("cilk", "numa32")
	openmpUplift := get("openmp", "finegrained") / get("openmp", "numa32")
	if cilkUplift < openmpUplift {
		t.Errorf("cilk uplift %.2f < openmp uplift %.2f; the fine-grained machine should reward the nesting plan more",
			cilkUplift, openmpUplift)
	}
}
