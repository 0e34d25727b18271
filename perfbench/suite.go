package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"kremlin"
	"kremlin/internal/absint"
	"kremlin/internal/analysis"
	"kremlin/internal/bench"
	"kremlin/internal/depcheck"
	"kremlin/internal/hcpa"
	"kremlin/internal/instrument"
	"kremlin/internal/interp"
	"kremlin/internal/irbuild"
	"kremlin/internal/parser"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// suiteInput is one of the paper's 11 benchmark programs.
type suiteInput struct {
	name, file, src string
}

func suiteInputs() []suiteInput {
	var ins []suiteInput
	for _, b := range bench.All() {
		ins = append(ins, suiteInput{name: b.Name, file: b.Name + ".kr", src: b.Source})
	}
	return ins
}

// artifacts are one operation's user-visible outputs.
type artifacts struct {
	output []byte // program print output
	krpf2  []byte // serialized profile (HCPA only)
	text   []byte // rendered plan (HCPA) or hotspot table (gprof)
}

// hcpaOp is the `kremlin prog` path through the public API:
// Compile → Profile → Plan(OpenMP).Render → WriteTo.
func hcpaOp(in suiteInput) (artifacts, error) {
	var out bytes.Buffer
	p, err := kremlin.Compile(in.file, in.src)
	if err != nil {
		return artifacts{}, err
	}
	prof, _, err := p.Profile(&kremlin.RunConfig{Out: &out})
	if err != nil {
		return artifacts{}, err
	}
	plan := p.Plan(prof, planner.OpenMP()).Render()
	var kb bytes.Buffer
	if _, err := prof.WriteTo(&kb); err != nil {
		return artifacts{}, err
	}
	return artifacts{output: out.Bytes(), krpf2: kb.Bytes(), text: []byte(plan)}, nil
}

// gprofOp is the paper's baseline: Compile → RunGprof → RenderHotspots.
func gprofOp(in suiteInput) (artifacts, error) {
	var out bytes.Buffer
	p, err := kremlin.Compile(in.file, in.src)
	if err != nil {
		return artifacts{}, err
	}
	res, err := p.RunGprof(&kremlin.RunConfig{Out: &out})
	if err != nil {
		return artifacts{}, err
	}
	return artifacts{output: out.Bytes(), text: []byte(kremlin.RenderHotspots(p.Hotspots(res)))}, nil
}

// compileTraced is kremlin.Compile's default pipeline called phase by
// phase, one span per layer. TestTracedPipelineMatchesCompile keeps it
// byte-identical to kremlin.Compile.
func compileTraced(tr *tracer, name, src string) (*kremlin.Program, error) {
	file := source.NewFile(name, src)
	errs := &source.ErrorList{}
	p := &kremlin.Program{File: file}
	tr.do("parser", func() { p.AST = parser.Parse(file, errs) })
	if err := errs.Err(); err != nil {
		return nil, err
	}
	tr.do("types", func() { p.Info = types.Check(p.AST, file, errs) })
	if err := errs.Err(); err != nil {
		return nil, err
	}
	tr.do("irbuild", func() { p.Module = irbuild.Build(p.AST, p.Info, file, errs) })
	if err := errs.Err(); err != nil {
		return nil, err
	}
	tr.do("analysis", func() { p.Analysis = analysis.Run(p.Module) })
	tr.do("absint", func() { p.Absint = absint.Analyze(p.Module) })
	tr.do("regions", func() { p.Regions = regions.Analyze(p.Module, file) })
	tr.do("depcheck", func() { p.Vet = depcheck.Analyze(p.Regions, p.Absint) })
	tr.do("instrument", func() { p.Instr = instrument.Build(p.Regions) })
	tr.do("bytecode.compile", func() { p.Bytecode() })
	n := 0
	for _, f := range p.Module.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	tr.add("ir.instrs", float64(n))
	return p, nil
}

// profileCounts records the runtime and dictionary counters of an HCPA run.
func profileCounts(tr *tracer, prof *profile.Profile, res *interp.Result) {
	tr.add("shadow.pages", float64(res.ShadowPages))
	tr.add("shadow.writes", float64(res.ShadowWrites))
	tr.add("profile.dict_entries", float64(len(prof.Dict.Entries)))
	tr.add("profile.dict_raw", float64(prof.Dict.RawCount))
	tr.add("profile.raw_bytes", float64(prof.RawBytes()))
}

// hcpaOpTraced is hcpaOp with a span around every layer call.
func hcpaOpTraced(tr *tracer, in suiteInput) (artifacts, *kremlin.Program, error) {
	p, err := compileTraced(tr, in.file, in.src)
	if err != nil {
		return artifacts{}, nil, err
	}
	var out bytes.Buffer
	var prof *profile.Profile
	var res *interp.Result
	tr.do("kremlib.hcpa", func() { prof, res, err = p.Profile(&kremlin.RunConfig{Out: &out}) })
	if err != nil {
		return artifacts{}, nil, err
	}
	profileCounts(tr, prof, res)
	art := artifacts{output: out.Bytes()}
	art.text = renderTraced(tr, planTraced(tr, p, prof))
	art.krpf2 = writeTraced(tr, prof)
	return art, p, nil
}

// planTraced is Program.Plan split into its two layers.
func planTraced(tr *tracer, p *kremlin.Program, prof *profile.Profile) *planner.Plan {
	var sum *hcpa.Summary
	var plan *planner.Plan
	tr.do("hcpa.summarize", func() { sum = p.Summarize(prof) })
	tr.do("planner.plan", func() { plan = planner.Make(sum, planner.OpenMP()) })
	return plan
}

// renderTraced renders a plan under its own span.
func renderTraced(tr *tracer, plan *planner.Plan) []byte {
	var text string
	tr.do("planner.render", func() { text = plan.Render() })
	return []byte(text)
}

// writeTraced serializes a profile under its own span.
func writeTraced(tr *tracer, prof *profile.Profile) []byte {
	var kb bytes.Buffer
	tr.do("profile.write", func() { _, _ = prof.WriteTo(&kb) })
	tr.add("profile.bytes", float64(kb.Len()))
	return kb.Bytes()
}

// gprofOpTraced is gprofOp with a span around every layer call.
func gprofOpTraced(tr *tracer, in suiteInput) (artifacts, *kremlin.Program, error) {
	p, err := compileTraced(tr, in.file, in.src)
	if err != nil {
		return artifacts{}, nil, err
	}
	var out bytes.Buffer
	var res *interp.Result
	tr.do("kremlib.gprof", func() { res, err = p.RunGprof(&kremlin.RunConfig{Out: &out}) })
	if err != nil {
		return artifacts{}, nil, err
	}
	art := artifacts{output: out.Bytes()}
	tr.do("gprof.render", func() { art.text = []byte(kremlin.RenderHotspots(p.Hotspots(res))) })
	return art, p, nil
}

// attribute runs the extra engine modes the per-layer split needs
// (plain VM, gprof) on an already compiled program, outside any timed
// operation, so region and HCPA costs can be taken as differences.
func attribute(tr *tracer, p *kremlin.Program, gprof bool) error {
	var err error
	runtime.GC()
	tr.do("bytecode.plain", func() {
		res, rerr := p.Run(&kremlin.RunConfig{Out: io.Discard})
		if err = rerr; err == nil {
			tr.add("vm.steps", float64(res.Steps))
		}
	})
	if err != nil || !gprof {
		return err
	}
	runtime.GC()
	tr.do("kremlib.gprof", func() { _, err = p.RunGprof(&kremlin.RunConfig{Out: io.Discard}) })
	return err
}

// checkSuite compares an operation's artifacts with the reference digests.
func checkSuite(mode string, art artifacts, want suiteRef) error {
	if d := digest(art.output); d != want.Output {
		return fmt.Errorf("program output digest %s, want %s", d, want.Output)
	}
	if mode == "hcpa" {
		if d := digest(art.krpf2); d != want.KRPF2 {
			return fmt.Errorf("KRPF2 digest %s, want %s", d, want.KRPF2)
		}
		if d := digest(art.text); d != want.Plan {
			return fmt.Errorf("plan digest %s, want %s", d, want.Plan)
		}
		return nil
	}
	if d := digest(art.text); d != want.Hotspots {
		return fmt.Errorf("hotspot table digest %s, want %s", d, want.Hotspots)
	}
	return nil
}

// compileAll is one suite set-up: every input compiled once, front half
// and bytecode, from a collected heap. It returns the set-up's times.
func compileAll(ins []suiteInput) (times, error) {
	runtime.GC()
	var err error
	t := measure(func() {
		for _, in := range ins {
			p, cerr := kremlin.Compile(in.file, in.src)
			if cerr != nil {
				err = fmt.Errorf("setup: %s: %w", in.name, cerr)
				return
			}
			p.Bytecode()
		}
	})
	return t, err
}

// runSuite measures suite-hcpa (mode "hcpa") or suite-gprof (mode "gprof").
// Every pass starts with one fresh set-up, so the set-up samples are spread
// over the window like the ops; a window too short for minSetups passes is
// topped up with set-ups after it.
func runSuite(o options, mode string, ins []suiteInput, ref *reference) (*run, error) {
	r := newRun(o)
	setup := func() error {
		t, err := compileAll(ins)
		if err == nil {
			r.addSetup(t)
		}
		return err
	}

	op, opTraced := hcpaOp, hcpaOpTraced
	if mode == "gprof" {
		op, opTraced = gprofOp, gprofOpTraced
	}
	rng := newRand(o.seed)
	var deadline time.Time
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := setup(); err != nil {
			return nil, err
		}
		if pass == 0 {
			deadline = time.Now().Add(o.seconds)
		}
		r.passes++
		for _, k := range rng.Perm(len(ins)) {
			in := ins[k]
			want, ok := ref.Suite[in.name]
			untraced := func() {
				var art artifacts
				var err error
				t := r.timed(func() { art, err = op(in) })
				if err == nil && !ok {
					err = fmt.Errorf("no reference digests for %s", in.name)
				}
				if err == nil {
					err = checkSuite(mode, art, want)
				}
				r.record(false, in.name, t, err)
				if pass == 0 && err == nil {
					r.outputBytes += len(art.krpf2) + len(art.text)
				}
			}
			if o.tr == nil {
				untraced()
				continue
			}
			traced := func() {
				var art artifacts
				var p *kremlin.Program
				var err error
				o.tr.beginOp()
				runtime.GC()
				t := measure(func() {
					o.tr.do("op", func() { art, p, err = opTraced(o.tr, in) })
				})
				if err == nil && !ok {
					err = fmt.Errorf("no reference digests for %s", in.name)
				}
				if err == nil {
					err = checkSuite(mode, art, want)
				}
				if err == nil {
					err = attribute(o.tr, p, mode == "hcpa")
				}
				r.record(true, in.name, t, err)
			}
			// The two ops of an input swap order every pass, so the
			// second one's warmer caches cancel out of trace.overhead_ms.
			if pass%2 == 0 {
				untraced()
				traced()
			} else {
				traced()
				untraced()
			}
		}
	}
	for len(r.setups) < minSetups {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	return r, nil
}
