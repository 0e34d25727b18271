package krfuzz

// Incremental-vs-full oracle: profile a base program cold into a content-
// hash cache, then profile an edited variant through that cache and demand
// the result be indistinguishable from profiling the edited program from
// scratch — on both execution engines, plus a cross-engine pairing where
// the tree interpreter records and the bytecode VM replays. The front
// cache gets the same treatment at compile time (checkFrontCache).
//
// Deliberately NOT compared: shadow-memory statistics (ShadowPages,
// ShadowWrites). Replaying a cached extent skips the shadow writes the
// recorded execution performed, so those counters legitimately shrink on a
// warm run; they are diagnostics, not outputs. Everything user-visible —
// program output, profile bytes, gprof counters, step/work totals, and the
// rendered parallelization plan — must be byte-identical.

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/planner"
)

// CheckIncremental runs the incremental-reprofiling oracle on one
// (base, edited) pair. A nil return means the incremental path is
// indistinguishable from from-scratch profiling.
func CheckIncremental(name, baseSrc, editSrc string, cfg OracleConfig) error {
	fail := func(check, format string, args ...interface{}) error {
		return &Failure{Source: editSrc, Check: check, Detail: fmt.Sprintf(format, args...)}
	}
	if err := checkFrontCache(name, baseSrc, editSrc, fail); err != nil {
		return err
	}

	type pairing struct {
		label        string
		record, play kremlin.Engine
	}
	pairings := []pairing{
		{"vm", kremlin.EngineVM, kremlin.EngineVM},
		{"tree", kremlin.EngineTree, kremlin.EngineTree},
		{"tree-to-vm", kremlin.EngineTree, kremlin.EngineVM},
	}
	for _, pr := range pairings {
		if err := checkIncrementalPair(name, baseSrc, editSrc, cfg, pr.label, pr.record, pr.play, fail); err != nil {
			return err
		}
	}
	return nil
}

func checkIncrementalPair(name, baseSrc, editSrc string, cfg OracleConfig,
	label string, record, replay kremlin.Engine,
	fail func(string, string, ...interface{}) error) error {

	dir, err := os.MkdirTemp("", "krfuzz-inc")
	if err != nil {
		return fail("inc-tmpdir", "%v", err)
	}
	defer os.RemoveAll(dir)

	base, err := kremlin.Compile(name, baseSrc)
	if err != nil {
		return fail("inc-base-compile", "[%s] %v", label, err)
	}
	edited, err := kremlin.Compile(name, editSrc)
	if err != nil {
		return fail("inc-edit-compile", "[%s] %v", label, err)
	}

	// Cold run of the base program populates the cache.
	st, err := inccache.Open(dir)
	if err != nil {
		return fail("inc-open", "[%s] %v", label, err)
	}
	var coldOut strings.Builder
	if _, _, err := base.Profile(&kremlin.RunConfig{
		Out: &coldOut, MaxSteps: cfg.maxSteps(), Engine: record, Cache: st,
	}); err != nil {
		return fail("inc-cold-run", "[%s] %v", label, err)
	}

	// From-scratch ground truth for the edited program.
	var truthOut strings.Builder
	truthProf, truthRes, err := edited.Profile(&kremlin.RunConfig{
		Out: &truthOut, MaxSteps: cfg.maxSteps(), Engine: replay,
	})
	if err != nil {
		return fail("inc-truth-run", "[%s] %v", label, err)
	}
	var truthGprofOut strings.Builder
	truthGprof, err := edited.RunGprof(&kremlin.RunConfig{
		Out: &truthGprofOut, MaxSteps: cfg.maxSteps(), Engine: replay,
	})
	if err != nil {
		return fail("inc-truth-gprof", "[%s] %v", label, err)
	}
	truthPlan := edited.Plan(truthProf, planner.OpenMP()).Render()

	// Warm incremental run of the edited program through the cache.
	st2, err := inccache.Open(dir)
	if err != nil {
		return fail("inc-reopen", "[%s] %v", label, err)
	}
	var warmOut strings.Builder
	var stats inccache.Stats
	warmProf, warmRes, err := edited.Profile(&kremlin.RunConfig{
		Out: &warmOut, MaxSteps: cfg.maxSteps(), Engine: replay,
		Cache: st2, CacheStats: &stats,
	})
	if err != nil {
		return fail("inc-warm-run", "[%s] %v", label, err)
	}

	if warmOut.String() != truthOut.String() {
		return fail("inc-output", "[%s] incremental output differs from from-scratch:\n--- scratch ---\n%s--- incremental ---\n%s",
			label, truthOut.String(), warmOut.String())
	}
	if warmRes.Steps != truthRes.Steps || warmRes.Work != truthRes.Work {
		return fail("inc-counters", "[%s] incremental steps/work %d/%d, from-scratch %d/%d",
			label, warmRes.Steps, warmRes.Work, truthRes.Steps, truthRes.Work)
	}
	if wb, tb := profileBytes(warmProf), profileBytes(truthProf); !bytes.Equal(wb, tb) {
		return fail("inc-profile", "[%s] incremental profile serialized differently (%d vs %d bytes, %d hits)",
			label, len(wb), len(tb), stats.Hits)
	}
	if plan := edited.Plan(warmProf, planner.OpenMP()).Render(); plan != truthPlan {
		return fail("inc-plan", "[%s] incremental plan diverged\n--- scratch ---\n%s\n--- incremental ---\n%s",
			label, truthPlan, plan)
	}

	// Gprof mode never consults the cache; its counters pin that the cache
	// plumbing has no side channel into non-HCPA runs.
	var gprofOut strings.Builder
	gprof, err := edited.RunGprof(&kremlin.RunConfig{
		Out: &gprofOut, MaxSteps: cfg.maxSteps(), Engine: replay,
	})
	if err != nil {
		return fail("inc-gprof-run", "[%s] %v", label, err)
	}
	if gprofOut.String() != truthGprofOut.String() {
		return fail("inc-gprof-output", "[%s] gprof output diverged", label)
	}
	if gprof.Work != truthGprof.Work || gprof.Steps != truthGprof.Steps {
		return fail("inc-gprof-counters", "[%s] gprof work/steps %d/%d vs %d/%d",
			label, gprof.Work, gprof.Steps, truthGprof.Work, truthGprof.Steps)
	}
	return nil
}

// IncrementalFailure records one incremental-oracle violation found by a
// campaign, with both sides of the edit pair.
type IncrementalFailure struct {
	Seed   int64  `json:"seed"`
	Kind   string `json:"kind"`   // edit pattern (body-edit, callee-edit, dead-edit)
	Target string `json:"target"` // edited function
	Check  string `json:"check"`
	Detail string `json:"detail"`
	Base   string `json:"base"`   // pre-edit source
	Edited string `json:"edited"` // post-edit source
	Path   string `json:"repro_path"`
}

// IncrementalCampaignResult summarizes an incremental-oracle campaign.
type IncrementalCampaignResult struct {
	N        int                   `json:"n"`
	Seed     int64                 `json:"seed"`
	Passed   int                   `json:"passed"`
	Failed   int                   `json:"failed"`
	Kinds    map[string]int        `json:"edit_kinds"` // edit pattern → occurrences
	Failures []*IncrementalFailure `json:"failures,omitempty"`
}

// RunIncrementalCampaign runs the incremental oracle over N seeded
// (program, single-function-edit) pairs. Reproducer pairs are written to
// OutDir as self-contained .kr files (base program, separator, edited
// program). Like RunCampaign it never stops early.
func RunIncrementalCampaign(cfg CampaignConfig) (*IncrementalCampaignResult, error) {
	gen := cfg.Gen
	if gen == (Config{}) {
		gen = Default()
	}
	res := &IncrementalCampaignResult{N: cfg.N, Seed: cfg.Seed, Kinds: map[string]int{}}
	for i := 0; i < cfg.N; i++ {
		seed := cfg.Seed + int64(i)
		p := Generate(seed, gen)
		mut, kind, target := Mutate(p, seed+1)
		if mut == nil {
			continue
		}
		res.Kinds[kind.String()]++
		baseSrc, editSrc := p.Source(), mut.Source()
		err := CheckIncremental(fmt.Sprintf("krinc-%d.kr", seed), baseSrc, editSrc, cfg.Oracle)
		if err == nil {
			res.Passed++
			if cfg.Progress != nil {
				cfg.Progress(i+1, res.Failed)
			}
			continue
		}
		res.Failed++
		f, ok := err.(*Failure)
		if !ok {
			f = &Failure{Source: editSrc, Check: "internal", Detail: err.Error()}
		}
		cf := &IncrementalFailure{
			Seed: seed, Kind: kind.String(), Target: target,
			Check: f.Check, Detail: f.Detail, Base: baseSrc, Edited: editSrc,
		}
		cf.Path = fmt.Sprintf("%s/krinc-repro-%d.kr", outDirOrDot(cfg.OutDir), seed)
		body := fmt.Sprintf("// krinc reproducer: seed %d, edit %s of %s, check %q\n// %s\n// --- base program ---\n%s\n// --- edited program (profile base cold, then this through the cache) ---\n%s",
			seed, kind, target, f.Check, f.Detail, commentOut(baseSrc), editSrc)
		if werr := os.WriteFile(cf.Path, []byte(body), 0o644); werr != nil {
			return res, fmt.Errorf("writing reproducer: %w", werr)
		}
		res.Failures = append(res.Failures, cf)
		if cfg.Progress != nil {
			cfg.Progress(i+1, res.Failed)
		}
	}
	return res, nil
}

func outDirOrDot(dir string) string {
	if dir == "" {
		return "."
	}
	return dir
}

// commentOut prefixes every line so the base program rides along in the
// reproducer file without confusing the compiler.
func commentOut(src string) string {
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "// " + l
	}
	return strings.Join(lines, "\n")
}
