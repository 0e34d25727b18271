// Package kremlin is a from-scratch Go implementation of Kremlin, the
// parallelism-discovery and parallelism-planning tool of Garcia, Jeon,
// Louie & Taylor, "Kremlin: Rethinking and Rebooting gprof for the
// Multicore Age" (PLDI 2011).
//
// Given the serial source of a program written in Kr (a small C-like
// language compiled by this package), Kremlin answers the question "which
// parts of this program should I parallelize first?":
//
//	prog, err := kremlin.Compile("blur.kr", src)        // kremlin-cc
//	prof, _, err := prog.Profile(nil)                   // run instrumented binary
//	plan := prog.Plan(prof, planner.OpenMP())           // kremlin --personality=openmp
//	for _, rec := range plan.Recommendations { ... }
//
// The pipeline is the paper's: static instrumentation over a compiler IR in
// SSA form, hierarchical critical path analysis (HCPA) through a
// multi-level shadow memory at run time, on-line dictionary compression of
// the dynamic region trace, self-parallelism computation directly on the
// compressed profile, and a personality-driven planner (OpenMP, Cilk++)
// that turns the profile into a ranked list of regions with estimated
// whole-program speedups.
package kremlin

import (
	"context"
	"fmt"
	"io"
	"sync"

	"kremlin/internal/absint"
	"kremlin/internal/analysis"
	"kremlin/internal/ast"
	"kremlin/internal/bytecode"
	"kremlin/internal/depcheck"
	"kremlin/internal/frontcache"
	"kremlin/internal/hcpa"
	"kremlin/internal/inccache"
	"kremlin/internal/instrument"
	"kremlin/internal/interp"
	"kremlin/internal/ir"
	"kremlin/internal/irbuild"
	"kremlin/internal/irhash"
	"kremlin/internal/kremlib"
	"kremlin/internal/parser"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// Program is a compiled, analyzed, instrumentation-ready Kr program.
type Program struct {
	File    *source.File
	AST     *ast.File
	Info    *types.Info
	Module  *ir.Module
	Regions *regions.Program
	Instr   *instrument.Module
	// Vet holds the static loop-dependence verdicts (provably parallel /
	// provably serial / unknown per loop region); the same verdicts are
	// stamped on Regions as each region's Safety.
	Vet *depcheck.Result
	// Absint holds the interval/congruence abstract interpretation facts:
	// proven-in-bounds views, proven-nonzero divisors, must-iterate loops,
	// and the lint diagnostics (definite faults, unreachable code, dead
	// stores). Always computed — depcheck and `kremlin lint` consume it
	// unconditionally; only bytecode consumption is gated (-absint=off,
	// CompileOptions.DisableAbsint).
	Absint *absint.Facts
	// Analysis reports how many induction/reduction dependencies the static
	// analysis broke.
	Analysis analysis.Stats

	absintOff bool
	hashOnce  sync.Once
	hashes    *irhash.Module // see contentHashes
	bcOnce    sync.Once
	bc        *bytecode.Program
}

// Engine selects the execution engine backing Run/RunGprof/Profile. Both
// engines are observably identical — same output, counters, profiles,
// plans, errors, and limit-stop prefixes (the krfuzz differential oracle
// enforces this); they differ only in speed.
type Engine int

// Engines. The bytecode VM is the default; the tree-walking interpreter
// remains as the reference oracle (-engine=tree).
const (
	EngineVM   Engine = iota // block-batched bytecode VM (default)
	EngineTree               // per-IR-instruction reference interpreter
)

func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "vm"
}

// ParseEngine parses a CLI -engine value. The empty string means the
// default engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "vm":
		return EngineVM, nil
	case "tree":
		return EngineTree, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want vm or tree)", s)
}

// Bytecode returns the program's bytecode with every function compiled
// (cached; safe for concurrent callers).
func (p *Program) Bytecode() *bytecode.Program {
	p.code().Funcs()
	return p.bc
}

// code returns the program's bytecode, whose functions compile on their
// first call: the runs use it, so a run that replays most calls from the
// incremental cache compiles only the functions it executes.
func (p *Program) code() *bytecode.Program {
	p.bcOnce.Do(func() {
		facts := p.Absint
		if p.absintOff {
			facts = nil // compile fully checked code; observables are identical
		}
		p.bc = bytecode.Compile(p.Module, p.Regions, p.Instr, facts)
	})
	return p.bc
}

// CompileOptions tunes the compilation pipeline.
type CompileOptions struct {
	// DisableDependenceBreaking skips induction/reduction detection — the
	// §2.4 ablation showing how easy-to-break dependencies masquerade as
	// seriality under plain CPA.
	DisableDependenceBreaking bool
	// DisableAbsint (-absint=off) stops the bytecode compiler from
	// consuming abstract-interpretation facts: no unchecked opcodes, no
	// widened fusion windows. The facts themselves are still computed (vet
	// and lint always use them); profiles, plans, and program output are
	// byte-identical either way.
	DisableAbsint bool
	// FrontCache, when non-nil, serves each function's abstract
	// interpretation and mod/ref summary from one scope of a front cache
	// when the function's analysis inputs are unchanged (see
	// internal/frontcache), and stores the fresh ones. Unless dependence
	// breaking is off, it also serves each function's lowered, annotated
	// IR when the function's source text and the declarations it can see
	// are unchanged. The program is identical to an uncached compile's.
	FrontCache *frontcache.Scope
}

// Compile parses, type-checks, lowers, and statically instruments src with
// default options. This is the library form of `make CC=kremlin-cc`.
func Compile(name, src string) (*Program, error) {
	return CompileWith(name, src, CompileOptions{})
}

// CompileWith is Compile with explicit pipeline options.
//
// Compilation failures come back as a *CompileError tagging which stage
// rejected the program (parsing vs semantic analysis), so callers — the
// CLIs' exit codes, the serve daemon's HTTP taxonomy — can distinguish a
// syntactically broken program from a semantically broken one.
func CompileWith(name, src string, o CompileOptions) (*Program, error) {
	file := source.NewFile(name, src)
	errs := &source.ErrorList{}
	tree := parser.Parse(file, errs)
	if err := errs.Err(); err != nil {
		return nil, &CompileError{Stage: StageParse, Errs: errs}
	}
	info := types.Check(tree, file, errs)
	if err := errs.Err(); err != nil {
		return nil, &CompileError{Stage: StageAnalysis, Errs: errs}
	}
	// Lowered bodies come from the front cache only on the path whose
	// bodies it stores: dependence breaking on.
	var low *frontcache.Lowering
	var lc irbuild.Cache
	if o.FrontCache != nil && !o.DisableDependenceBreaking {
		low = o.FrontCache.Lowering(file, info)
		lc = low
	}
	mod := irbuild.BuildWith(tree, info, file, errs, lc)
	if err := errs.Err(); err != nil {
		return nil, &CompileError{Stage: StageAnalysis, Errs: errs}
	}
	var stats analysis.Stats
	switch {
	case o.DisableDependenceBreaking:
		analysis.Init(mod)
	case low != nil:
		stats = low.Annotate(mod)
	default:
		stats = analysis.Run(mod)
	}
	p := &Program{
		File:      file,
		AST:       tree,
		Info:      info,
		Module:    mod,
		Analysis:  stats,
		absintOff: o.DisableAbsint,
	}
	if low != nil {
		p.hashOnce.Do(func() { p.hashes = low.Hash(mod) })
	}
	p.analyze(o.FrontCache)
	return p, nil
}

// analyze runs the rest of the pipeline on the lowered module: abstract
// interpretation, regions, the dependence analysis and instrumentation,
// through the front cache scope when there is one. The last two reuse the
// CFGs the region analysis built, which the program then drops.
func (p *Program) analyze(front *frontcache.Scope) {
	var fc *frontcache.Session
	if front != nil {
		fc = front.Session(p.contentHashes())
	}
	p.Absint = absint.AnalyzeWith(p.Module, fc)
	p.Regions = regions.Analyze(p.Module, p.File)
	p.Vet = depcheck.AnalyzeWith(p.Regions, p.Absint, fc)
	p.Instr = instrument.Build(p.Regions)
	p.Regions.ReleaseCFGs()
}

// RunConfig tunes an execution.
type RunConfig struct {
	Out      io.Writer // program output; nil discards
	MaxSteps uint64    // instruction budget; 0 = default
	// Ctx, when non-nil, lets the run be cancelled or deadlined mid-flight
	// (limits.ErrCancelled). Nil means the run cannot be stopped.
	Ctx context.Context
	// MaxShadowPages caps the live shadow-memory pages of an HCPA run;
	// MaxHeapWords caps the simulated heap in 8-byte words (both 0 =
	// unlimited; both fail with limits.ErrMemCap).
	MaxShadowPages int
	MaxHeapWords   uint64
	// MinDepth/MaxDepth bound the HCPA depth collection window.
	MinDepth, MaxDepth int
	// TraceDeps turns on the runtime loop-carried dependence tracer (HCPA
	// profiling only); the loops caught with a cross-iteration flow
	// dependence come back in Result.CarriedDeps. Used to cross-check the
	// static analyzer's verdicts against observed executions.
	TraceDeps bool
	// Engine selects the execution engine (default: the bytecode VM).
	Engine Engine
	// Cache, when non-nil, enables incremental re-profiling for Profile():
	// unchanged sealed functions replay their cached HCPA extents instead of
	// executing, and fresh extents are recorded for future runs. The
	// resulting profile is byte-identical to an uncached run. Ignored (the
	// run is simply uncached) when the configuration is incompatible with
	// replay: TraceDeps or a non-default depth window.
	Cache *inccache.Store
	// CacheScope, when non-empty, isolates this run's cache keyspace: records
	// read and written under one scope are invisible to every other scope of
	// the same store. The serve daemon sets it to the tenant name so tenants
	// share one bounded store without being able to replay each other's
	// records.
	CacheScope string
	// CacheStats, when non-nil and a cache session ran, receives the
	// session's hit/miss counters.
	CacheStats *inccache.Stats
}

func (p *Program) interpConfig(cfg *RunConfig, mode interp.Mode) interp.Config {
	ic := interp.Config{Mode: mode, Prog: p.Regions, Instr: p.Instr}
	if cfg != nil {
		ic.Out = cfg.Out
		ic.MaxSteps = cfg.MaxSteps
		ic.Ctx = cfg.Ctx
		ic.MaxHeapWords = cfg.MaxHeapWords
		ic.Opts = kremlib.Options{
			MinDepth: cfg.MinDepth, MaxDepth: cfg.MaxDepth,
			TraceDeps: cfg.TraceDeps, MaxShadowPages: cfg.MaxShadowPages,
		}
	}
	return ic
}

// execute dispatches one run to the configured engine.
func (p *Program) execute(cfg *RunConfig, mode interp.Mode) (*interp.Result, error) {
	ic := p.interpConfig(cfg, mode)
	if cfg != nil && cfg.Engine == EngineTree {
		return interp.Run(p.Module, ic)
	}
	return bytecode.Run(p.code(), ic)
}

// Run executes the program uninstrumented.
func (p *Program) Run(cfg *RunConfig) (*interp.Result, error) {
	return p.execute(cfg, interp.Plain)
}

// RunGprof executes with gprof-style (work-only) region profiling, the
// baseline of the paper's overhead comparison.
func (p *Program) RunGprof(cfg *RunConfig) (*interp.Result, error) {
	return p.execute(cfg, interp.Gprof)
}

// Profile executes the instrumented program, producing the compressed
// parallelism profile of one run. This is the library form of running the
// kremlin-cc-built binary.
func (p *Program) Profile(cfg *RunConfig) (*profile.Profile, *interp.Result, error) {
	ic := p.interpConfig(cfg, interp.HCPA)
	sess := p.cacheSession(cfg)
	ic.Cache = sess
	var res *interp.Result
	var err error
	if cfg != nil && cfg.Engine == EngineTree {
		res, err = interp.Run(p.Module, ic)
	} else {
		res, err = bytecode.Run(p.code(), ic)
	}
	if sess != nil && cfg.CacheStats != nil {
		*cfg.CacheStats = sess.Stats()
	}
	if err != nil {
		return nil, nil, err
	}
	if sess != nil {
		// Persist fresh records; cache write failures degrade the cache,
		// never the run.
		_ = cfg.Cache.Save()
	}
	res.Profile.Safety = p.safetyVector()
	return res.Profile, res, nil
}

// cacheSession returns the incremental-cache session for a run, or nil when
// the run configuration is incompatible with sound extent replay (dependence
// tracing changes what the runtime observes; a non-default depth window
// changes what a recorded extent means).
func (p *Program) cacheSession(cfg *RunConfig) *inccache.Session {
	if cfg == nil || cfg.Cache == nil || cfg.TraceDeps || cfg.MinDepth != 0 {
		return nil
	}
	if cfg.MaxDepth != 0 && cfg.MaxDepth != kremlib.DefaultMaxDepth {
		return nil
	}
	return cfg.Cache.Session(p.Regions, p.contentHashes(), cfg.CacheScope)
}

// contentHashes returns the module's content hashes, computed on first use:
// by a front-cached compile, or else by the first incrementally cached
// run. Every later use shares them.
func (p *Program) contentHashes() *irhash.Module {
	p.hashOnce.Do(func() { p.hashes = irhash.Analyze(p.Module) })
	return p.hashes
}

// safetyVector flattens the per-region static dependence verdicts into the
// profile's region-ID-indexed safety section.
func (p *Program) safetyVector() []uint8 {
	out := make([]uint8, len(p.Regions.Regions))
	for i, r := range p.Regions.Regions {
		out[i] = uint8(r.Safety)
	}
	return out
}

// CheckProfile reports an error unless every dictionary entry of prof
// names one of p's static regions, as Summarize and Plan assume. A profile
// read from a file may come from another program, or be crafted; every
// consumer checks it right after reading.
func (p *Program) CheckProfile(prof *profile.Profile) error {
	n := len(p.Regions.Regions)
	for c, e := range prof.Dict.Entries {
		if e.StaticID < 0 || int(e.StaticID) >= n {
			return fmt.Errorf("profile entry %d names static region %d, but the program has %d regions (a profile of another program?)", c, e.StaticID, n)
		}
	}
	return nil
}

// Summarize aggregates a profile into per-static-region HCPA metrics
// (work, coverage, self-parallelism, total-parallelism, DOALL detection).
func (p *Program) Summarize(prof *profile.Profile) *hcpa.Summary {
	return hcpa.Summarize(prof, p.Regions)
}

// Plan produces the ordered parallelism plan for a profile under the given
// planner personality. This is the library form of
// `kremlin prog --personality=...`.
func (p *Program) Plan(prof *profile.Profile, pers planner.Personality) *planner.Plan {
	return planner.Make(p.Summarize(prof), pers)
}

// Func returns the named IR function, or nil (test/debug convenience).
func (p *Program) Func(name string) *ir.Func { return p.Module.ByName[name] }
