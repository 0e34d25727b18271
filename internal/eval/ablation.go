package eval

import (
	"time"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/exec"
	"kremlin/internal/hcpa"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
)

// Ablations for the design choices DESIGN.md calls out: the
// induction/reduction dependence breaking of §2.4/§4.1, the planner
// personalities of §5, and the operate-on-compressed-data planning of
// §4.4.

// BreakingRow compares a benchmark's reduction-bearing loops with and
// without the dependence-breaking analysis.
type BreakingRow struct {
	Name string
	// LoopsCollapsed counts loops whose SP drops below the planner's 5.0
	// cutoff when breaking is disabled.
	LoopsCollapsed int
	// PlanWith / PlanWithout are the OpenMP plan sizes.
	PlanWith, PlanWithout int
	// MaxSPDrop is the largest SP ratio (with / without) observed.
	MaxSPDrop float64
}

// DependenceBreakingAblation recompiles each benchmark with detection
// disabled and reports how the profile and plan degrade.
func DependenceBreakingAblation() ([]BreakingRow, error) {
	var rows []BreakingRow
	for _, b := range bench.All() {
		c, err := bench.Load(b)
		if err != nil {
			return nil, err
		}
		raw, err := kremlin.CompileWith(b.Name+".kr", b.Source,
			kremlin.CompileOptions{DisableDependenceBreaking: true})
		if err != nil {
			return nil, err
		}
		rprof, _, err := raw.Profile(nil)
		if err != nil {
			return nil, err
		}
		rsum := raw.Summarize(rprof)

		row := BreakingRow{Name: b.Name}
		// Region IDs are identical across the two compiles (same source,
		// same pipeline shape).
		for _, st := range c.Summary.Executed {
			if st.Region.Kind != regions.LoopRegion {
				continue
			}
			rst := rsum.ByID(st.Region.ID)
			if rst == nil {
				continue
			}
			if st.SelfP >= 5.0 && rst.SelfP < 5.0 {
				row.LoopsCollapsed++
			}
			if rst.SelfP > 0 {
				if drop := st.SelfP / rst.SelfP; drop > row.MaxSPDrop {
					row.MaxSPDrop = drop
				}
			}
		}
		row.PlanWith = len(planner.Make(c.Summary, planner.OpenMP()).Recs)
		row.PlanWithout = len(planner.Make(rsum, planner.OpenMP()).Recs)
		rows = append(rows, row)
	}
	return rows, nil
}

// CompressedPlanningRow compares aggregating HCPA metrics directly on the
// dictionary against replaying the equivalent uncompressed trace (§4.4's
// "planning time from minutes to small fractions of a second").
type CompressedPlanningRow struct {
	Name           string
	DictEntries    int
	DynamicRegions uint64
	CompressedTime time.Duration
	ExpandedTime   time.Duration
	Speedup        float64
}

// CompressedPlanningAblation measures both aggregation paths.
func CompressedPlanningAblation() ([]CompressedPlanningRow, error) {
	var rows []CompressedPlanningRow
	for _, b := range bench.All() {
		c, err := bench.Load(b)
		if err != nil {
			return nil, err
		}
		row := CompressedPlanningRow{
			Name:           b.Name,
			DictEntries:    len(c.Profile.Dict.Entries),
			DynamicRegions: c.Profile.Dict.RawCount,
		}
		start := time.Now()
		hcpa.Summarize(c.Profile, c.Program.Regions)
		row.CompressedTime = time.Since(start)

		start = time.Now()
		expandedSummarize(c.Profile, c.Program.Regions)
		row.ExpandedTime = time.Since(start)

		if row.CompressedTime > 0 {
			row.Speedup = float64(row.ExpandedTime) / float64(row.CompressedTime)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// expandedSummarize aggregates per-region work/cp the way a planner
// reading an uncompressed trace would: one record at a time, once per
// dynamic region instance. The result matches Summarize's aggregate work
// (checked by tests); only the cost differs.
func expandedSummarize(prof *profile.Profile, prog *regions.Program) []uint64 {
	counts := prof.InstanceCounts()
	work := make([]uint64, len(prog.Regions))
	for c, e := range prof.Dict.Entries {
		// Replay each instance as if it were a separate trace record.
		for i := int64(0); i < counts[c]; i++ {
			work[e.StaticID] += e.Work
		}
	}
	return work
}

// PersonalityRow compares the OpenMP and Cilk++ planners on one benchmark.
type PersonalityRow struct {
	Name        string
	OpenMPSize  int
	CilkSize    int
	OpenMPSpeed float64
	CilkSpeed   float64
}

// PersonalityComparison plans each benchmark under both shipped
// personalities and simulates both plans. The Cilk++ machine model uses
// cheaper fork/sync costs, reflecting its work-stealing runtime.
func PersonalityComparison() ([]PersonalityRow, error) {
	cilkMachine := exec.Machine{
		Cores:           32,
		ForkCost:        30,
		SchedCost:       1.0,
		ReductionCost:   12,
		SyncCost:        4,
		MigrationFactor: 0.2,
		NestedParallel:  true,
	}
	var rows []PersonalityRow
	for _, b := range bench.All() {
		c, err := bench.Load(b)
		if err != nil {
			return nil, err
		}
		omp := planner.Make(c.Summary, planner.OpenMP())
		cilk := planner.Make(c.Summary, planner.Cilk())
		or := exec.BestConfig(c.Summary, toSet(PlanIDs(omp)), Machine())
		cr := exec.BestConfig(c.Summary, toSet(PlanIDs(cilk)), cilkMachine)
		rows = append(rows, PersonalityRow{
			Name:        b.Name,
			OpenMPSize:  len(omp.Recs),
			CilkSize:    len(cilk.Recs),
			OpenMPSpeed: or.Speedup,
			CilkSpeed:   cr.Speedup,
		})
	}
	return rows, nil
}

// PortabilityCell is one (plan personality, machine) pairing of the §5.3
// portability-accuracy matrix.
type PortabilityCell struct {
	Plan    string
	Machine string
	Geomean float64
}

// fineGrained models a research machine with cheap fine-grained
// parallelism (the paper's "100-core Tilera" contrast to the NUMA box).
func fineGrained() exec.Machine {
	return exec.Machine{
		Cores:           32,
		ForkCost:        15,
		SchedCost:       0.5,
		ReductionCost:   6,
		SyncCost:        2,
		MigrationFactor: 0.05,
		NestedParallel:  true,
	}
}

// PortabilityMatrix evaluates both planner personalities on both machine
// models (§5.3): a personality tuned to a machine should win there, and
// the mismatch penalty is the accuracy given up for portability.
func PortabilityMatrix() ([]PortabilityCell, error) {
	machines := []struct {
		name string
		m    exec.Machine
	}{
		{"numa32", Machine()},
		{"finegrained", fineGrained()},
	}
	plans := []struct {
		name string
		p    planner.Personality
	}{
		{"openmp", planner.OpenMP()},
		{"cilk", planner.Cilk()},
	}
	var cells []PortabilityCell
	for _, pl := range plans {
		for _, mc := range machines {
			prod, n := 1.0, 0
			for _, b := range bench.All() {
				c, err := bench.Load(b)
				if err != nil {
					return nil, err
				}
				ids := toSet(PlanIDs(planner.Make(c.Summary, pl.p)))
				r := exec.BestConfig(c.Summary, ids, mc.m)
				if r.Speedup > 0 {
					prod *= r.Speedup
					n++
				}
			}
			cells = append(cells, PortabilityCell{
				Plan:    pl.name,
				Machine: mc.name,
				Geomean: pow(prod, 1/float64(n)),
			})
		}
	}
	return cells, nil
}
