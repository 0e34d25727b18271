// Package interp executes Kr IR. It is both the "uninstrumented binary"
// (plain mode) and, with instrumentation enabled, the vehicle that drives
// the KremLib profiling runtime: every executed instruction performs the
// hierarchical critical-path update, every region-crossing CFG edge fires
// region enter/exit/iterate events, and every branch pushes its control
// dependence. A gprof mode tracks only per-region work, for the paper's
// instrumentation-overhead comparison.
package interp

import (
	"context"
	"fmt"
	"io"
	"math"

	"kremlin/internal/ast"
	"kremlin/internal/inccache"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/limits"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
)

// Mode selects how much instrumentation the run performs.
type Mode int

// Execution modes.
const (
	Plain Mode = iota // no profiling
	Gprof             // per-region work only (a serial time profiler)
	HCPA              // full hierarchical critical path analysis
	Probe             // per-depth work histogram (sizes sharded depth windows)
)

// Config configures a run.
type Config struct {
	Mode     Mode
	Out      io.Writer // print output; nil discards
	MaxSteps uint64    // instruction budget; 0 means the default (2e9)
	// Ctx, when non-nil, lets the run be cancelled or deadlined mid-flight;
	// the interpreter polls it every few thousand instructions and fails
	// with limits.ErrCancelled. A nil Ctx means the run cannot be stopped
	// from outside.
	Ctx context.Context
	// MaxHeapWords caps the simulated heap (in 8-byte words, 0 =
	// unlimited); an allocation pushing past it fails with
	// limits.ErrMemCap instead of growing the host process.
	MaxHeapWords uint64
	Opts         kremlib.Options
	Prog         *regions.Program   // required for Gprof and HCPA
	Instr        *instrument.Module // optional; built on demand for HCPA
	// Cache, when non-nil in HCPA mode, is the incremental re-profiling
	// session: eligible calls replay cached extents instead of executing,
	// and fresh extents are recorded for future runs. The profile produced
	// is byte-identical either way.
	Cache *inccache.Session
}

// GprofEntry is one region's serial work profile (gprof mode).
type GprofEntry struct {
	RegionID int
	Total    uint64 // work including children
	Self     uint64 // work excluding children
	Count    int64  // dynamic instances
}

// Result summarizes a completed execution.
type Result struct {
	Work    uint64
	Steps   uint64
	Profile *profile.Profile // HCPA mode
	Gprof   []GprofEntry     // Gprof mode, indexed by region ID
	// ShadowPages/ShadowWrites report shadow-memory pressure (HCPA mode).
	ShadowPages  int
	ShadowWrites uint64
	// DepthWork[d] is the work executed while d regions were active (Probe
	// mode); MaxRegionDepth is the deepest nesting observed.
	DepthWork      []uint64
	MaxRegionDepth int
	// CarriedDeps lists the loop regions (by static region ID, sorted) that
	// exhibited a dynamic loop-carried flow dependence. Only populated in
	// HCPA mode with Options.TraceDeps set.
	CarriedDeps []int
	// BatchedSteps and SlowSteps split a completed HCPA run's body steps
	// (phis excluded) on the bytecode VM: BatchedSteps had their shadow
	// updates replayed by one StepBlock per block, SlowSteps took one Step
	// each. Both stay 0 on the tree engine, which always steps singly.
	BatchedSteps uint64
	SlowSteps    uint64
}

// RuntimeError is an execution failure annotated with a source offset.
type RuntimeError struct {
	Pos int
	Msg string
}

func (e *RuntimeError) Error() string { return e.Msg }

// Simulated-machine layout constants, exported so the bytecode engine
// (internal/bytecode) shares the exact same heap layout and array limits
// as this reference interpreter. The liveness-poll interval and default
// step budget live in package limits, shared by both engines.
const (
	// HeapBase is the first simulated heap address; addresses below it are
	// never handed out, so 0 stays an unmistakable "no address" value.
	HeapBase = uint64(1) << 16
	// MaxArrayElems caps a single array allocation.
	MaxArrayElems = int64(1) << 27
)

const (
	heapBase        = HeapBase
	defaultMaxSteps = limits.DefaultMaxSteps
	maxArrayElems   = MaxArrayElems
	liveCheckMask   = limits.LiveCheckMask
)

// array is a (possibly partial) view into the simulated heap.
type array struct {
	base uint64
	dims []int64
	elem ast.BasicKind
}

// val is a runtime value. I doubles as bool storage (0/1).
type val struct {
	i int64
	f float64
	a array
}

type machine struct {
	mod   *ir.Module
	cfg   Config
	out   io.Writer
	steps uint64
	limit uint64
	ctx   context.Context // nil when the run is not cancellable

	heap     []uint64
	heapTop  uint64
	heapCap  uint64 // max heap words; 0 = unlimited
	heapPeak uint64 // high-water mark, tracked for cache-skip budget fidelity

	rng uint64

	globalBase []uint64

	// plain-mode work counter (HCPA counts inside kremlib).
	work uint64

	// gprof mode
	gpSelf  []uint64
	gpTotal []uint64
	gpCount []int64
	gpStack []gpFrame

	// probe mode: work is attributed to the nesting depth it ran at,
	// flushed lazily at region boundaries (O(region events), not O(steps)).
	probeDepth int
	probeMax   int
	probeMark  uint64
	depthWork  []uint64

	// HCPA mode
	rt   *kremlib.Runtime
	prof *profile.Profile

	printedAny bool
}

type gpFrame struct {
	regionID  int
	entryWork uint64
	childWork uint64
}

// Run executes mod.Main() under cfg.
//
// On a limit failure (cancellation, instruction budget, memory cap — see
// package limits) the returned error wraps the matching sentinel AND the
// Result is non-nil, carrying the partial run state (Steps, Work, and in
// Gprof mode the profile of every region instance that completed before
// the limit fired). All other errors return a nil Result.
func Run(mod *ir.Module, cfg Config) (*Result, error) {
	m := &machine{mod: mod, cfg: cfg, out: cfg.Out, rng: 0x9E3779B97F4A7C15}
	m.limit = cfg.MaxSteps
	if m.limit == 0 {
		m.limit = defaultMaxSteps
	}
	m.ctx = cfg.Ctx
	m.heapCap = cfg.MaxHeapWords
	if cfg.Mode != Plain && cfg.Prog == nil {
		return nil, fmt.Errorf("interp: %v mode requires region info", cfg.Mode)
	}
	if cfg.Mode != Plain && cfg.Instr == nil {
		m.cfg.Instr = instrument.Build(cfg.Prog)
	}
	if cfg.Mode == HCPA {
		m.prof = profile.New()
		m.rt = kremlib.NewRuntime(m.prof, cfg.Opts)
		if cfg.Cache != nil {
			cfg.Cache.Bind(m.prof, m.rt)
		}
	} else {
		m.cfg.Cache = nil
	}
	if cfg.Mode == Gprof {
		n := len(cfg.Prog.Regions)
		m.gpSelf = make([]uint64, n)
		m.gpTotal = make([]uint64, n)
		m.gpCount = make([]int64, n)
	}

	if err := m.allocGlobals(); err != nil {
		return nil, err
	}

	main := mod.Main()
	if main == nil {
		return nil, fmt.Errorf("interp: no main function")
	}
	_, _, err := m.call(main, nil, nil, nil)
	if err != nil {
		if limits.IsLimit(err) {
			return m.partialResult(), err
		}
		return nil, err
	}

	res := &Result{Steps: m.steps}
	switch cfg.Mode {
	case HCPA:
		res.Work = m.rt.TotalWork()
		res.Profile = m.prof
		res.ShadowPages = m.rt.Mem().NumPages()
		res.ShadowWrites = m.rt.Mem().Writes
		res.CarriedDeps = m.rt.CarriedDeps()
	case Probe:
		m.probeFlush()
		res.Work = m.work
		res.DepthWork = m.depthWork
		res.MaxRegionDepth = m.probeMax
	case Gprof:
		res.Work = m.work
		for id := range m.gpTotal {
			if m.gpCount[id] == 0 {
				continue
			}
			res.Gprof = append(res.Gprof, GprofEntry{
				RegionID: id, Total: m.gpTotal[id], Self: m.gpSelf[id], Count: m.gpCount[id],
			})
		}
	default:
		res.Work = m.work
	}
	return res, nil
}

func (m *machine) allocGlobals() error {
	m.globalBase = make([]uint64, len(m.mod.Globals))
	for i, g := range m.mod.Globals {
		if g.IsArray() {
			total := int64(1)
			for _, d := range g.Dims {
				total *= d
			}
			base, err := m.alloc(total)
			if err != nil {
				return err
			}
			m.globalBase[i] = base
			continue
		}
		addr, err := m.alloc(1)
		if err != nil {
			return err
		}
		m.globalBase[i] = addr
		if g.Init != nil {
			switch c := g.Init.(type) {
			case *ir.ConstInt:
				m.heap[addr-heapBase] = uint64(c.V)
			case *ir.ConstFloat:
				m.heap[addr-heapBase] = math.Float64bits(c.V)
			case *ir.ConstBool:
				if c.V {
					m.heap[addr-heapBase] = 1
				}
			}
		}
	}
	return nil
}

func (m *machine) alloc(n int64) (uint64, error) {
	base := heapBase + m.heapTop
	if m.heapCap > 0 && m.heapTop+uint64(n) > m.heapCap {
		return 0, limits.MemCap(m.steps, 0,
			"simulated heap cap exceeded (%d words requested, %d in use, cap %d)",
			n, m.heapTop, m.heapCap)
	}
	m.heapTop += uint64(n)
	if m.heapTop > m.heapPeak {
		m.heapPeak = m.heapTop
	}
	need := int(m.heapTop)
	if need > len(m.heap) {
		grown := make([]uint64, need*2)
		copy(grown, m.heap)
		m.heap = grown
	} else {
		// Reused region (after a frame free): clear it.
		for i := base - heapBase; i < base-heapBase+uint64(n); i++ {
			m.heap[i] = 0
		}
	}
	return base, nil
}

// partialResult snapshots the run state for a limit failure: the caller
// gets the step/work counters plus, in Gprof mode, the profile prefix of
// every region instance that fully completed before the limit fired.
func (m *machine) partialResult() *Result {
	res := &Result{Steps: m.steps, Work: m.work}
	switch m.cfg.Mode {
	case HCPA:
		if m.rt != nil {
			res.Work = m.rt.TotalWork()
			res.ShadowPages = m.rt.Mem().NumPages()
			res.ShadowWrites = m.rt.Mem().Writes
		}
	case Gprof:
		for id := range m.gpTotal {
			if m.gpCount[id] == 0 {
				continue
			}
			res.Gprof = append(res.Gprof, GprofEntry{
				RegionID: id, Total: m.gpTotal[id], Self: m.gpSelf[id], Count: m.gpCount[id],
			})
		}
	}
	return res
}

// checkLive runs the periodic (not per-instruction) liveness checks:
// context cancellation and the shadow-memory page cap.
func (m *machine) checkLive() error {
	if m.ctx != nil {
		if m.ctx.Err() != nil {
			return limits.Cancelled(m.steps)
		}
	}
	if m.rt != nil {
		if err := m.rt.CheckLimits(m.steps); err != nil {
			return err
		}
	}
	return nil
}

// probeFlush attributes work since the last region boundary to the depth
// it ran at.
func (m *machine) probeFlush() {
	for m.probeDepth >= len(m.depthWork) {
		m.depthWork = append(m.depthWork, 0)
	}
	m.depthWork[m.probeDepth] += m.work - m.probeMark
	m.probeMark = m.work
}

// regionEnter/regionExit/regionIterate dispatch to whichever profiler is on.
func (m *machine) regionEnter(r *regions.Region) {
	switch m.cfg.Mode {
	case HCPA:
		m.rt.EnterRegion(r)
	case Gprof:
		m.gpStack = append(m.gpStack, gpFrame{regionID: r.ID, entryWork: m.work})
		m.gpCount[r.ID]++
	case Probe:
		m.probeFlush()
		m.probeDepth++
		if m.probeDepth > m.probeMax {
			m.probeMax = m.probeDepth
		}
	}
}

func (m *machine) regionExit() {
	switch m.cfg.Mode {
	case HCPA:
		m.rt.ExitRegion()
	case Gprof:
		top := m.gpStack[len(m.gpStack)-1]
		m.gpStack = m.gpStack[:len(m.gpStack)-1]
		total := m.work - top.entryWork
		m.gpTotal[top.regionID] += total
		m.gpSelf[top.regionID] += total - top.childWork
		if n := len(m.gpStack); n > 0 {
			m.gpStack[n-1].childWork += total
		}
	case Probe:
		m.probeFlush()
		m.probeDepth--
	}
}

func (m *machine) edgeEvents(fi *instrument.FuncInstr, from, to *ir.Block) {
	ev := fi.EdgeEvents(from, to)
	for range ev.Exit {
		m.regionExit()
	}
	if ev.Iterate != nil {
		m.regionExit()
		m.regionEnter(ev.Iterate)
	}
	for _, r := range ev.Enter {
		m.regionEnter(r)
	}
}

func (m *machine) errAt(pos int, format string, args ...interface{}) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// call executes f with the given arguments. argVecs carries the callers'
// shadow vectors in HCPA mode.
func (m *machine) call(f *ir.Func, args []val, argVecs []shadow.Vec, callerFS *kremlib.FrameState) (val, shadow.Vec, error) {
	regs := make([]val, f.NumValues())
	watermark := m.heapTop

	profiled := m.cfg.Mode != Plain
	var fs *kremlib.FrameState
	var fi *instrument.FuncInstr
	gpEntryDepth := len(m.gpStack)
	probeEntryDepth := m.probeDepth
	if m.cfg.Mode == HCPA {
		fs = m.rt.NewFrame(f, callerFS)
	}
	if profiled {
		fi = m.cfg.Instr.PerFunc[f]
		m.regionEnter(m.cfg.Prog.PerFunc[f].Root)
	}
	if fs != nil {
		for i, p := range f.Params {
			if i < len(argVecs) && argVecs[i] != nil {
				fs.Regs.Set(p.ID, argVecs[i], len(argVecs[i]))
			}
		}
	}
	for i, p := range f.Params {
		if i < len(args) {
			regs[p.ID] = args[i]
		}
	}

	blk := f.Entry()
	var prev *ir.Block
	var phiVals []val
	var retVal val
	var retVec shadow.Vec

	for {
		if fs != nil {
			m.rt.AtBlock(fs, blk)
			// Re-entering the block that owns the top control entry means
			// its branch is about to re-execute (a loop); the stale entry
			// must not serialize this iteration against the last.
			m.rt.PopSameBranch(fs, blk)
		}
		// Phis evaluate in parallel against the pre-state.
		nPhis := 0
		for _, ins := range blk.Instrs {
			if ins.Op != ir.OpPhi {
				break
			}
			nPhis++
		}
		predIdx := -1
		if nPhis > 0 {
			for i, p := range blk.Preds {
				if p == prev {
					predIdx = i
					break
				}
			}
			if cap(phiVals) < nPhis {
				phiVals = make([]val, nPhis)
			}
			phiVals = phiVals[:nPhis]
			for k := 0; k < nPhis; k++ {
				ins := blk.Instrs[k]
				if predIdx >= 0 && predIdx < len(ins.Args) {
					phiVals[k] = m.value(regs, ins.Args[predIdx])
				}
			}
			for k := 0; k < nPhis; k++ {
				ins := blk.Instrs[k]
				regs[ins.ID] = phiVals[k]
				if fs != nil {
					m.rt.Step(fs, ins, 0, predIdx)
				}
				m.steps++
			}
		}

		var next *ir.Block
		returned := false
		for _, ins := range blk.Instrs[nPhis:] {
			m.steps++
			if m.steps > m.limit {
				return val{}, nil, limits.Budget(m.limit, m.steps)
			}
			if m.steps&liveCheckMask == 0 {
				if err := m.checkLive(); err != nil {
					return val{}, nil, err
				}
			}
			if m.cfg.Mode != HCPA {
				m.work += ins.Latency()
			}

			switch ins.Op {
			case ir.OpParam:
				// Value seeded at call; shadow vec seeded at frame setup.
				continue
			case ir.OpBin:
				v, err := m.binop(regs, ins)
				if err != nil {
					return val{}, nil, err
				}
				regs[ins.ID] = v
			case ir.OpNeg:
				x := m.value(regs, ins.Args[0])
				if ins.Typ.Elem == ast.Float {
					regs[ins.ID] = val{f: -x.f}
				} else {
					regs[ins.ID] = val{i: -x.i}
				}
			case ir.OpNot:
				x := m.value(regs, ins.Args[0])
				regs[ins.ID] = val{i: 1 - x.i}
			case ir.OpConvert:
				x := m.value(regs, ins.Args[0])
				if ins.Typ.Elem == ast.Float {
					regs[ins.ID] = val{f: float64(x.i)}
				} else {
					regs[ins.ID] = val{i: int64(x.f)}
				}
			case ir.OpAllocArray:
				v, err := m.allocArray(regs, ins)
				if err != nil {
					return val{}, nil, err
				}
				regs[ins.ID] = v
			case ir.OpGlobal:
				g := ins.Global
				regs[ins.ID] = val{a: array{base: m.globalBase[g.Index], dims: g.Dims, elem: g.Elem}}
			case ir.OpView:
				arr := m.value(regs, ins.Args[0]).a
				idx := m.value(regs, ins.Args[1]).i
				if len(arr.dims) == 0 {
					return val{}, nil, m.errAt(ins.Pos, "index of non-array value")
				}
				if idx < 0 || idx >= arr.dims[0] {
					return val{}, nil, m.errAt(ins.Pos, "index %d out of range [0,%d)", idx, arr.dims[0])
				}
				stride := int64(1)
				for _, d := range arr.dims[1:] {
					stride *= d
				}
				regs[ins.ID] = val{a: array{base: arr.base + uint64(idx*stride), dims: arr.dims[1:], elem: arr.elem}}
			case ir.OpLoad:
				cell := m.value(regs, ins.Args[0]).a
				bits := m.heap[cell.base-heapBase]
				if ins.Typ.Elem == ast.Float {
					regs[ins.ID] = val{f: math.Float64frombits(bits)}
				} else {
					regs[ins.ID] = val{i: int64(bits)}
				}
				if fs != nil {
					m.rt.Step(fs, ins, cell.base, -1)
				}
				continue
			case ir.OpStore:
				cell := m.value(regs, ins.Args[0]).a
				v := m.value(regs, ins.Args[1])
				var bits uint64
				if cell.elem == ast.Float {
					bits = math.Float64bits(v.f)
				} else {
					bits = uint64(v.i)
				}
				m.heap[cell.base-heapBase] = bits
				if fs != nil {
					m.rt.Step(fs, ins, cell.base, -1)
				}
				continue
			case ir.OpCall:
				if err := m.doCall(regs, ins, fs); err != nil {
					return val{}, nil, err
				}
				continue
			case ir.OpBuiltin:
				if err := m.builtin(regs, ins); err != nil {
					return val{}, nil, err
				}
			case ir.OpBr:
				cond := m.value(regs, ins.Args[0])
				if cond.i != 0 {
					next = ins.Targets[0]
				} else {
					next = ins.Targets[1]
				}
				if fs != nil {
					vec := m.rt.Step(fs, ins, 0, -1)
					if popAt, ok := fi.PopAt[blk]; ok && popAt != nil {
						m.rt.PushCtrl(fs, blk, popAt, vec)
					}
				}
				continue
			case ir.OpJump:
				next = ins.Targets[0]
				if fs != nil {
					m.rt.Step(fs, ins, 0, -1)
				}
				continue
			case ir.OpRet:
				if len(ins.Args) > 0 {
					retVal = m.value(regs, ins.Args[0])
				}
				returned = true
				if fs != nil {
					m.rt.Step(fs, ins, 0, -1)
					retVec = fs.RetVec
				}
			default:
				return val{}, nil, m.errAt(ins.Pos, "unknown opcode %v", ins.Op)
			}
			if fs != nil && ins.Op != ir.OpRet {
				m.rt.Step(fs, ins, 0, -1)
			}
			if returned {
				break
			}
		}

		if returned || next == nil {
			break
		}
		if profiled {
			m.edgeEvents(fi, blk, next)
		}
		prev = blk
		blk = next
	}

	if profiled {
		// Exit any loops left open plus the function region.
		switch m.cfg.Mode {
		case HCPA:
			m.rt.Unwind(fs.EntryDepth)
		case Probe:
			for m.probeDepth > probeEntryDepth {
				m.regionExit()
			}
		default:
			for len(m.gpStack) > gpEntryDepth {
				m.regionExit()
			}
		}
	}
	// Release frame-local heap (and its shadow state).
	if m.heapTop != watermark {
		if m.rt != nil {
			m.rt.Mem().Free(heapBase+watermark, m.heapTop-watermark)
		}
		m.heapTop = watermark
	}
	if fs != nil {
		// RetVec stays readable until the caller's FinishCall, which runs
		// before any further NewFrame.
		m.rt.ReleaseFrame(fs)
	}
	return retVal, retVec, nil
}

func (m *machine) doCall(regs []val, ins *ir.Instr, fs *kremlib.FrameState) error {
	args := make([]val, len(ins.Args))
	for i, a := range ins.Args {
		args[i] = m.value(regs, a)
	}
	var argVecs []shadow.Vec
	if fs != nil {
		m.rt.Step(fs, ins, 0, -1)
		// The callee's Regs.Set copies before anything can mutate the
		// caller's register table, so the live vectors can be passed
		// without a defensive copy.
		argVecs = make([]shadow.Vec, len(ins.Args))
		for i, a := range ins.Args {
			if ai, ok := a.(*ir.Instr); ok {
				argVecs[i] = fs.Regs.Get(ai.ID)
			}
		}
	}
	var rec *inccache.Recording
	sess := m.cfg.Cache
	if sess != nil && fs != nil && sess.Cacheable(ins.Callee) {
		bits := callArgBits(ins.Callee, args)
		if hit, ok := sess.TrySkip(ins.Callee, ins, fs, bits, argVecs, m.steps, m.limit, m.heapTop, m.heapCap); ok {
			m.steps += hit.Steps
			if p := m.heapTop + hit.PeakHeap; p > m.heapPeak {
				m.heapPeak = p
			}
			regs[ins.ID] = valFromBits(ins.Callee.Ret, hit.RetBits)
			return nil
		}
		rec = sess.BeginRecord(ins.Callee, bits, m.steps)
	}
	savedPeak := m.heapPeak
	if rec != nil {
		// Track the extent's own heap high-water mark so the record can
		// reproduce heap-cap failures exactly on replay.
		m.heapPeak = m.heapTop
	}
	ret, retVec, err := m.call(ins.Callee, args, argVecs, fs)
	if err != nil {
		return err
	}
	if rec != nil {
		sess.EndRecord(rec, m.steps, retBitsOf(ins.Callee.Ret, ret), retVec, m.heapPeak-m.heapTop)
		if savedPeak > m.heapPeak {
			m.heapPeak = savedPeak
		}
	}
	regs[ins.ID] = ret
	if fs != nil {
		m.rt.FinishCall(fs, ins, retVec)
	}
	return nil
}

// callArgBits canonicalizes scalar call arguments for cache keying: the
// exact bit pattern, float args as their IEEE-754 image.
func callArgBits(f *ir.Func, args []val) []uint64 {
	bits := make([]uint64, len(f.Params))
	for i, p := range f.Params {
		if i >= len(args) {
			break
		}
		if p.Typ.Elem == ast.Float {
			bits[i] = math.Float64bits(args[i].f)
		} else {
			bits[i] = uint64(args[i].i)
		}
	}
	return bits
}

func valFromBits(ret ast.BasicKind, bits uint64) val {
	if ret == ast.Float {
		return val{f: math.Float64frombits(bits)}
	}
	return val{i: int64(bits)}
}

func retBitsOf(ret ast.BasicKind, v val) uint64 {
	if ret == ast.Float {
		return math.Float64bits(v.f)
	}
	return uint64(v.i)
}

func (m *machine) value(regs []val, v ir.Value) val {
	switch v := v.(type) {
	case *ir.Instr:
		return regs[v.ID]
	case *ir.ConstInt:
		return val{i: v.V}
	case *ir.ConstFloat:
		return val{f: v.V}
	case *ir.ConstBool:
		if v.V {
			return val{i: 1}
		}
		return val{}
	}
	return val{}
}

func (m *machine) binop(regs []val, ins *ir.Instr) (val, error) {
	x := m.value(regs, ins.Args[0])
	y := m.value(regs, ins.Args[1])
	isFloat := ins.Args[0].Type().Elem == ast.Float
	switch ins.Bin {
	case ir.BinAdd:
		if isFloat {
			return val{f: x.f + y.f}, nil
		}
		return val{i: x.i + y.i}, nil
	case ir.BinSub:
		if isFloat {
			return val{f: x.f - y.f}, nil
		}
		return val{i: x.i - y.i}, nil
	case ir.BinMul:
		if isFloat {
			return val{f: x.f * y.f}, nil
		}
		return val{i: x.i * y.i}, nil
	case ir.BinDiv:
		if isFloat {
			return val{f: x.f / y.f}, nil
		}
		if y.i == 0 {
			return val{}, m.errAt(ins.Pos, "integer division by zero")
		}
		return val{i: x.i / y.i}, nil
	case ir.BinRem:
		if y.i == 0 {
			return val{}, m.errAt(ins.Pos, "integer modulo by zero")
		}
		return val{i: x.i % y.i}, nil
	case ir.BinAnd:
		return val{i: x.i & y.i}, nil
	case ir.BinOr:
		return val{i: x.i | y.i}, nil
	}
	// Comparisons.
	var lt, eq bool
	if isFloat {
		lt, eq = x.f < y.f, x.f == y.f
	} else {
		lt, eq = x.i < y.i, x.i == y.i
	}
	var r bool
	switch ins.Bin {
	case ir.BinEq:
		r = eq
	case ir.BinNe:
		r = !eq
	case ir.BinLt:
		r = lt
	case ir.BinLe:
		r = lt || eq
	case ir.BinGt:
		r = !lt && !eq
	case ir.BinGe:
		r = !lt
	}
	if r {
		return val{i: 1}, nil
	}
	return val{}, nil
}

func (m *machine) allocArray(regs []val, ins *ir.Instr) (val, error) {
	dims := make([]int64, len(ins.Args))
	total := int64(1)
	for i, a := range ins.Args {
		d := m.value(regs, a).i
		if d <= 0 {
			return val{}, m.errAt(ins.Pos, "array dimension %d must be positive, got %d", i, d)
		}
		dims[i] = d
		total *= d
		if total > maxArrayElems {
			return val{}, m.errAt(ins.Pos, "array too large (%d elements)", total)
		}
	}
	base, err := m.alloc(total)
	if err != nil {
		return val{}, err
	}
	return val{a: array{base: base, dims: dims, elem: ins.Typ.Elem}}, nil
}

func (m *machine) builtin(regs []val, ins *ir.Instr) error {
	arg := func(i int) val { return m.value(regs, ins.Args[i]) }
	switch ins.Builtin {
	case "sqrt":
		regs[ins.ID] = val{f: math.Sqrt(arg(0).f)}
	case "fabs":
		regs[ins.ID] = val{f: math.Abs(arg(0).f)}
	case "floor":
		regs[ins.ID] = val{f: math.Floor(arg(0).f)}
	case "exp":
		regs[ins.ID] = val{f: math.Exp(arg(0).f)}
	case "log":
		regs[ins.ID] = val{f: math.Log(arg(0).f)}
	case "sin":
		regs[ins.ID] = val{f: math.Sin(arg(0).f)}
	case "cos":
		regs[ins.ID] = val{f: math.Cos(arg(0).f)}
	case "pow":
		regs[ins.ID] = val{f: math.Pow(arg(0).f, arg(1).f)}
	case "abs":
		x := arg(0).i
		if x < 0 {
			x = -x
		}
		regs[ins.ID] = val{i: x}
	case "min", "max":
		x, y := arg(0), arg(1)
		if ins.Typ.Elem == ast.Float {
			if (ins.Builtin == "min") == (x.f < y.f) {
				regs[ins.ID] = x
			} else {
				regs[ins.ID] = y
			}
		} else {
			if (ins.Builtin == "min") == (x.i < y.i) {
				regs[ins.ID] = x
			} else {
				regs[ins.ID] = y
			}
		}
	case "rand":
		regs[ins.ID] = val{i: int64(m.nextRand() >> 1)}
	case "frand":
		regs[ins.ID] = val{f: float64(m.nextRand()>>11) / float64(1<<53)}
	case "srand":
		m.rng = uint64(arg(0).i)*2862933555777941757 + 3037000493
	case "dim":
		a := arg(0).a
		k := arg(1).i
		if k < 0 || int(k) >= len(a.dims) {
			return m.errAt(ins.Pos, "dim index %d out of range", k)
		}
		regs[ins.ID] = val{i: a.dims[k]}
	case "printstr":
		m.printPiece(ins.Aux)
	case "printval":
		v := arg(0)
		switch ins.Args[0].Type().Elem {
		case ast.Float:
			m.printPiece(fmt.Sprintf("%g", v.f))
		case ast.Bool:
			m.printPiece(fmt.Sprintf("%t", v.i != 0))
		default:
			m.printPiece(fmt.Sprintf("%d", v.i))
		}
	case "printnl":
		if m.out != nil {
			fmt.Fprintln(m.out)
		}
		m.printedAny = false
	default:
		return m.errAt(ins.Pos, "unknown builtin %q", ins.Builtin)
	}
	return nil
}

func (m *machine) printPiece(s string) {
	if m.out == nil {
		return
	}
	if m.printedAny {
		fmt.Fprint(m.out, " ")
	}
	fmt.Fprint(m.out, s)
	m.printedAny = true
}

func (m *machine) nextRand() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}
