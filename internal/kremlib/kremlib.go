// Package kremlib is the profiling runtime the instrumented program runs
// against — the equivalent of the paper's KremLib library. It maintains the
// dynamic region stack, the per-depth work and critical-path accounting of
// hierarchical critical path analysis, the control-dependence stack, and
// the induction/reduction dependence-breaking update rules, and it emits
// compressed dynamic-region summaries into a profile.Dict on region exit.
package kremlib

import (
	"sort"

	"kremlin/internal/ir"
	"kremlin/internal/limits"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
)

// DefaultMaxDepth is the default region-depth collection window.
const DefaultMaxDepth = 48

// Options configures a profiling run.
type Options struct {
	// MinDepth/MaxDepth bound the half-open window [MinDepth, MaxDepth) of
	// region depths for which availability times are tracked — the paper's
	// command-line flag that lets HCPA data collection be split across
	// parallel runs. Regions outside the window still report work, with CP
	// falling back to work (a serial, conservative assumption).
	MinDepth int
	MaxDepth int
	// TraceDeps enables the loop-carried dependence tracer: every value read
	// is checked against the region tags to detect a flow dependence that
	// crosses iterations of an enclosing loop. Used by the fuzz oracle to
	// cross-check the static analyzer's "provably parallel" verdicts; off in
	// normal profiling (it adds a per-read scan over the active loop levels).
	TraceDeps bool
	// MaxShadowPages caps the number of live shadow-memory pages (0 =
	// unlimited). The interpreter polls CheckLimits periodically, so the
	// cap is a soft bound enforced within one poll interval — enough to
	// keep an adversarial program from running the profiling host out of
	// memory while costing nothing on the per-instruction path.
	MaxShadowPages int
}

type active struct {
	region    *regions.Region
	instance  uint64
	entryWork uint64
	// children is the run-length-encoded child sequence in execution
	// order: consecutive identical child summaries extend the last run.
	children []profile.Child
}

// Runtime is the live profiling state of one instrumented execution.
type Runtime struct {
	opts  Options
	mem   *shadow.Memory
	prof  *profile.Profile
	stack []active
	// maxTime is the per-level critical path of the open regions, dense and
	// parallel to stack, so the replay kernels raise it in place.
	maxTime []uint64

	totalWork    uint64
	nextInstance uint64
	maxDepth     int

	// ioVec serializes observable output (print) — an explicit dependence
	// chain, since output order is a true serial constraint.
	ioVec shadow.Vec
	// randVec serializes the internal RNG state the same way.
	randVec shadow.Vec

	scratch shadow.Vec
	// blockBase is StepBlock's resolved-once control baseline (a second
	// scratch vector, so the per-instruction scratch stays untouched).
	blockBase shadow.Vec
	tags      []uint64

	// vecPool recycles control-dependence vectors (popped by AtBlock /
	// PopSameBranch / same-branch replacement) so steady-state branches
	// allocate nothing.
	vecPool []shadow.Vec
	// framePool recycles FrameState records across calls.
	framePool []*FrameState

	// Loop-carried dependence tracer state (Options.TraceDeps). depLevels
	// holds the stack levels l where stack[l] is a loop region and
	// stack[l+1] its body region — the levels at which a tag signature can
	// witness a cross-iteration read. carried collects the loop regions
	// caught doing so.
	depLevels []int
	carried   map[int32]bool

	// onIntern, when set, observes every dictionary character produced by
	// ExitRegion, in intern order. The incremental profile cache uses it to
	// record which entries a call's dynamic extent touches.
	onIntern func(int32)
}

// NewRuntime returns a runtime recording into prof.
func NewRuntime(prof *profile.Profile, opts Options) *Runtime {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	rt := &Runtime{
		opts: opts,
		mem:  shadow.NewMemory(),
		prof: prof,
	}
	if opts.TraceDeps {
		rt.carried = make(map[int32]bool)
	}
	return rt
}

// Mem exposes the shadow memory (the interpreter signals frees through it).
func (rt *Runtime) Mem() *shadow.Memory { return rt.mem }

// CheckLimits reports whether the run has exceeded its shadow-memory page
// cap. It is polled periodically by the interpreter (never per
// instruction), so the hot path stays allocation- and branch-free.
func (rt *Runtime) CheckLimits(steps uint64) error {
	if pcap := rt.opts.MaxShadowPages; pcap > 0 {
		if n := rt.mem.NumPages(); n > pcap {
			return limits.MemCap(steps, n,
				"shadow-memory page cap exceeded (%d pages, cap %d)", n, pcap)
		}
	}
	return nil
}

// TotalWork returns the work executed so far.
func (rt *Runtime) TotalWork() uint64 { return rt.totalWork }

// Depth returns the current region nesting depth.
func (rt *Runtime) Depth() int { return len(rt.stack) }

// level returns the number of tracked levels right now (the exclusive
// upper bound of the window).
func (rt *Runtime) level() int {
	d := len(rt.stack)
	if d > rt.opts.MaxDepth {
		d = rt.opts.MaxDepth
	}
	return d
}

// lowLevel returns the first tracked level — the window's lower bound,
// clamped to the current depth. Levels below it accrue work only; their
// regions fall back to the serial (cp = work) assumption on exit, so two
// complementary-window runs can be collected in parallel and merged.
func (rt *Runtime) lowLevel() int {
	lo := rt.opts.MinDepth
	if d := rt.level(); lo > d {
		lo = d
	}
	return lo
}

// MaxDepthSeen returns the deepest region nesting observed so far.
func (rt *Runtime) MaxDepthSeen() int { return rt.maxDepth }

// EnterRegion pushes a new dynamic region instance.
func (rt *Runtime) EnterRegion(r *regions.Region) {
	rt.nextInstance++
	if d := len(rt.stack) + 1; d > rt.maxDepth {
		rt.maxDepth = d
	}
	// Reuse the child-run storage of the instance that last held this
	// stack slot: ExitRegion's InternRuns copies whatever it keeps.
	var kids []profile.Child
	if n := len(rt.stack); n < cap(rt.stack) {
		kids = rt.stack[:n+1][n].children[:0]
	}
	rt.stack = append(rt.stack, active{
		region:    r,
		instance:  rt.nextInstance,
		entryWork: rt.totalWork,
		children:  kids,
	})
	rt.maxTime = append(rt.maxTime, 0)
	rt.syncTags()
}

// ExitRegion pops the current region, interning its summary. It returns the
// region's dictionary character.
func (rt *Runtime) ExitRegion() int32 {
	n := len(rt.stack) - 1
	top := rt.stack[n]
	cp := rt.maxTime[n]
	rt.stack = rt.stack[:n]
	rt.maxTime = rt.maxTime[:n]
	rt.syncTags()

	work := rt.totalWork - top.entryWork
	if cp == 0 {
		// Region outside the tracked depth window, or empty: fall back to
		// the serial assumption.
		cp = work
	}
	if cp == 0 {
		cp = 1
	}
	char := rt.prof.Dict.InternRuns(int32(top.region.ID), work, cp, top.children)
	if rt.onIntern != nil {
		rt.onIntern(char)
	}
	if len(rt.stack) > 0 {
		parent := &rt.stack[len(rt.stack)-1]
		if n := len(parent.children); n > 0 && parent.children[n-1].Char == char {
			parent.children[n-1].Count++
		} else {
			parent.children = append(parent.children, profile.Child{Char: char, Count: 1})
		}
	} else {
		rt.prof.AddRoot(char)
	}
	return char
}

// IterateRegion ends the current dynamic instance of a loop-body region and
// begins a fresh one (a loop back edge).
func (rt *Runtime) IterateRegion(r *regions.Region) {
	rt.ExitRegion()
	rt.EnterRegion(r)
}

// Unwind exits every region at depth >= target (used on function return,
// which may leave several loops at once).
func (rt *Runtime) Unwind(target int) {
	for len(rt.stack) > target {
		rt.ExitRegion()
	}
}

// syncTags brings the tracked levels' tags in line with the region stack
// after one push or pop. Entries below the old length still hold their
// instances (a region event only changes the top), so only new levels are
// written.
func (rt *Runtime) syncTags() {
	d := rt.level()
	n := len(rt.tags)
	if cap(rt.tags) < d {
		tags := make([]uint64, d, d+16)
		copy(tags, rt.tags)
		rt.tags = tags
	}
	rt.tags = rt.tags[:d]
	for i := n; i < d; i++ {
		rt.tags[i] = rt.stack[i].instance
	}
	if cap(rt.scratch) < d {
		rt.scratch = make(shadow.Vec, d, d+16)
	}
	if rt.carried != nil {
		rt.depLevels = rt.depLevels[:0]
		for l := 0; l+1 < d; l++ {
			if rt.stack[l].region.Kind == regions.LoopRegion && rt.stack[l+1].region.Kind == regions.BodyRegion {
				rt.depLevels = append(rt.depLevels, l)
			}
		}
	}
}

// FrameState is the per-call profiling state: the shadow register table and
// the control-dependence stack of the frame. The control baseline inherited
// from the caller propagates interprocedural control dependence.
type FrameState struct {
	Regs       *shadow.RegisterTable
	ctrl       []ctrlEntry
	base       shadow.Vec
	RetVec     shadow.Vec
	EntryDepth int // region-stack depth at frame entry (before the func region)
}

type ctrlEntry struct {
	branch *ir.Block // the branch block that pushed the entry
	popAt  *ir.Block
	vec    shadow.Vec
}

// NewFrame creates the profiling state for a call. The caller's current
// control time becomes the frame's control baseline, which propagates
// interprocedural control dependence (a function called under an if is
// control dependent on the if, at every level the caller shares). Call
// before entering the callee's function region. Frames come from a pool;
// pair with ReleaseFrame when the call returns.
func (rt *Runtime) NewFrame(f *ir.Func, caller *FrameState) *FrameState {
	var fs *FrameState
	if n := len(rt.framePool); n > 0 {
		fs = rt.framePool[n-1]
		rt.framePool = rt.framePool[:n-1]
		fs.Regs.Reset(f.NumValues())
		fs.ctrl = fs.ctrl[:0]
		fs.RetVec = fs.RetVec[:0]
	} else {
		fs = &FrameState{Regs: shadow.NewRegisterTable(f.NumValues())}
	}
	fs.EntryDepth = len(rt.stack)
	d := rt.level()
	base := fs.base
	if cap(base) < d {
		base = make(shadow.Vec, d, d+16)
	}
	base = base[:d]
	var cv shadow.Vec
	if caller != nil {
		cv = caller.ctrlVec()
	}
	for l := 0; l < d; l++ {
		base[l] = shadow.Entry{Time: cv.Read(l, rt.tags[l]), Tag: rt.tags[l]}
	}
	fs.base = base
	return fs
}

// ReleaseFrame recycles a frame after its call has returned, returning its
// unpopped control vectors to the pool. The frame's RetVec stays readable
// until the next NewFrame (FinishCall runs before any further call setup).
func (rt *Runtime) ReleaseFrame(fs *FrameState) {
	for _, e := range fs.ctrl {
		rt.recycleVec(e.vec)
	}
	fs.ctrl = fs.ctrl[:0]
	if len(rt.framePool) < 64 {
		rt.framePool = append(rt.framePool, fs)
	}
}

// ctrlVec returns the vector holding the frame's current control time: the
// top of the control stack, else the inherited baseline. A nil result
// reads as zero at every level.
func (fs *FrameState) ctrlVec() shadow.Vec {
	if n := len(fs.ctrl); n > 0 {
		return fs.ctrl[n-1].vec
	}
	return fs.base
}

// ctrlTime returns the current control-dependence time at level l.
func (rt *Runtime) ctrlTime(fs *FrameState, l int) uint64 {
	return fs.ctrlVec().Read(l, rt.tags[l])
}

// getVec returns a pooled vector of length d (contents undefined).
func (rt *Runtime) getVec(d int) shadow.Vec {
	if n := len(rt.vecPool); n > 0 {
		v := rt.vecPool[n-1]
		rt.vecPool = rt.vecPool[:n-1]
		if cap(v) >= d {
			return v[:d]
		}
	}
	return make(shadow.Vec, d, d+16)
}

func (rt *Runtime) recycleVec(v shadow.Vec) {
	if cap(v) > 0 && len(rt.vecPool) < 64 {
		rt.vecPool = append(rt.vecPool, v)
	}
}

// PushCtrl pushes a control-dependence entry whose availability is the
// branch time vec, to be popped when control reaches popAt (the branch's
// immediate postdominator). The entry folds in the control time *below*
// it so reads need only check the top of the stack. When the same branch
// re-executes before its pop point (a loop back edge), its previous entry
// is replaced rather than chained: iteration i+1's control availability is
// its own condition's time, not the accumulated history — without this,
// the loop branch would serialize DOALL iterations at the loop level.
func (rt *Runtime) PushCtrl(fs *FrameState, branch, popAt *ir.Block, brVec shadow.Vec) {
	if n := len(fs.ctrl); n > 0 && fs.ctrl[n-1].branch == branch {
		rt.recycleVec(fs.ctrl[n-1].vec)
		fs.ctrl = fs.ctrl[:n-1]
	}
	d := rt.level()
	vec := rt.getVec(d)
	cv := fs.ctrlVec()
	tags := rt.tags
	for l := 0; l < d; l++ {
		t := cv.Read(l, tags[l])
		if bt := brVec.Read(l, tags[l]); bt > t {
			t = bt
		}
		vec[l] = shadow.Entry{Time: t, Tag: tags[l]}
	}
	fs.ctrl = append(fs.ctrl, ctrlEntry{branch: branch, popAt: popAt, vec: vec})
}

// PushBlockCtrl is PushCtrl for a branch whose vector brVec is the return
// of the StepBlock that just replayed the branch's block, with the frame's
// control stack unchanged since. Every replayed instruction starts from
// the control baseline, so at tracked levels brVec already dominates the
// control time and is copied as the entry; below the window the control
// time carries over. The result is PushCtrl's, without its per-level
// tag compares.
func (rt *Runtime) PushBlockCtrl(fs *FrameState, branch, popAt *ir.Block, brVec shadow.Vec) {
	rt.PopSameBranch(fs, branch)
	d := rt.level()
	lo := rt.lowLevel()
	vec := rt.getVec(d)
	cv := fs.ctrlVec()
	tags := rt.tags
	for l := 0; l < lo; l++ {
		vec[l] = shadow.Entry{Time: cv.Read(l, tags[l]), Tag: tags[l]}
	}
	copy(vec[lo:d], brVec[lo:d])
	fs.ctrl = append(fs.ctrl, ctrlEntry{branch: branch, popAt: popAt, vec: vec})
}

// PopSameBranch removes the top control entry if it was pushed by the same
// branch block; call before re-executing a branch so neither the branch's
// own availability nor its new entry chains on its previous execution.
func (rt *Runtime) PopSameBranch(fs *FrameState, branch *ir.Block) {
	if n := len(fs.ctrl); n > 0 && fs.ctrl[n-1].branch == branch {
		rt.recycleVec(fs.ctrl[n-1].vec)
		fs.ctrl = fs.ctrl[:n-1]
	}
}

// AtBlock pops control entries whose postdominator is the block now being
// entered. Only the top of the stack ever needs checking on reads, but
// multiple entries can share a pop point (loop back edges), so pop in a loop.
func (rt *Runtime) AtBlock(fs *FrameState, blk *ir.Block) {
	for n := len(fs.ctrl); n > 0 && fs.ctrl[n-1].popAt == blk; n = len(fs.ctrl) {
		rt.recycleVec(fs.ctrl[n-1].vec)
		fs.ctrl = fs.ctrl[:n-1]
	}
}

// argVec fetches the shadow vector of an operand (nil for constants, whose
// availability is 0 at every level).
func (rt *Runtime) argVec(fs *FrameState, v ir.Value) shadow.Vec {
	if ins, ok := v.(*ir.Instr); ok {
		return fs.Regs.Get(ins.ID)
	}
	return nil
}

// maxInto folds vec's availability times, each plus off, into out over
// levels [lo, d), applying the tag-mismatch-is-zero rule. A free function
// (not a closure) so Step's level loops compile without a closure
// environment.
func maxInto(out shadow.Vec, tags []uint64, vec shadow.Vec, off uint64, lo, d int) {
	if n := len(vec); n < d {
		d = n
	}
	for l := lo; l < d; l++ {
		if e := vec[l]; e.Tag == tags[l] && e.Time+off > out[l].Time {
			out[l].Time = e.Time + off
		}
	}
}

// maxIntoSlot is maxInto over a borrowed shadow-memory slot (the
// allocation-free load path).
func maxIntoSlot(out shadow.Vec, tags []uint64, s shadow.Slot, off uint64, lo, d int) {
	if n := len(s.Times); n < d {
		d = n
	}
	for l := lo; l < d; l++ {
		if t := s.Times[l]; s.Tags[l] == tags[l] && t+off > out[l].Time {
			out[l].Time = t + off
		}
	}
}

// Step performs the HCPA availability-time update for one executed
// instruction. addr is the simulated address touched by OpLoad/OpStore
// (otherwise ignored); predIdx is the incoming-predecessor index for OpPhi.
// It returns the instruction's time vector (valid until the next Step) —
// callers must copy, never retain it.
func (rt *Runtime) Step(fs *FrameState, ins *ir.Instr, addr uint64, predIdx int) shadow.Vec {
	lat := ins.Latency()
	rt.totalWork += lat
	d := rt.level()
	lo := rt.lowLevel()
	out := rt.scratch[:d]
	tags := rt.tags

	for l := 0; l < lo; l++ {
		out[l] = shadow.Entry{}
	}
	if lo < d {
		// Control time: the top of the control stack (else the frame
		// baseline), resolved once instead of per level.
		cv := fs.ctrlVec()
		cn := len(cv)
		if cn > d {
			cn = d
		}
		for l := lo; l < cn; l++ {
			var t uint64
			if e := cv[l]; e.Tag == tags[l] {
				t = e.Time
			}
			out[l] = shadow.Entry{Time: t, Tag: tags[l]}
		}
		if cn < lo {
			cn = lo
		}
		for l := cn; l < d; l++ {
			out[l] = shadow.Entry{Tag: tags[l]}
		}
	}

	switch ins.Op {
	case ir.OpPhi:
		if !ins.Induction && predIdx >= 0 && predIdx < len(ins.Args) {
			maxInto(out, tags, rt.argVec(fs, ins.Args[predIdx]), 0, lo, d)
		}
		// Induction phi: dependence on the carried value is broken; only the
		// control time remains.
	case ir.OpLoad:
		maxInto(out, tags, rt.argVec(fs, ins.Args[0]), 0, lo, d) // address computation
		maxIntoSlot(out, tags, rt.mem.Load(addr), 0, lo, d)
	default:
		for i, a := range ins.Args {
			if i == ins.BreakArg {
				continue // induction/reduction old-value dependence: ignored
			}
			maxInto(out, tags, rt.argVec(fs, a), 0, lo, d)
		}
		switch ins.Builtin {
		case "rand", "frand", "srand":
			maxInto(out, tags, rt.randVec, 0, lo, d)
		case "printval", "printstr", "printnl":
			maxInto(out, tags, rt.ioVec, 0, lo, d)
		}
	}

	if rt.carried != nil {
		rt.traceIns(fs, ins, addr, predIdx)
	}

	maxTime := rt.maxTime
	for l := lo; l < d; l++ {
		out[l].Time += lat
		if out[l].Time > maxTime[l] {
			maxTime[l] = out[l].Time
		}
	}

	switch {
	case ins.Op == ir.OpStore:
		rt.mem.WriteVec(addr, out, d)
	case ins.Op == ir.OpRet:
		fs.RetVec = append(fs.RetVec[:0], out...)
	case ins.Builtin == "rand" || ins.Builtin == "frand" || ins.Builtin == "srand":
		rt.randVec = append(rt.randVec[:0], out...)
		if ins.HasResult() {
			fs.Regs.Set(ins.ID, out, d)
		}
	case ins.Builtin == "printval" || ins.Builtin == "printstr" || ins.Builtin == "printnl":
		rt.ioVec = append(rt.ioVec[:0], out...)
	case ins.HasResult():
		fs.Regs.Set(ins.ID, out, d)
	}
	return out
}

// traceIns is the loop-carried dependence tracer: it re-walks the values
// ins reads — mirroring Step's fold rules exactly, including every broken
// dependence Step skips — and flags any read whose producer ran in an
// earlier iteration of an enclosing loop. The tag signature is decisive:
// every shadow vector and memory slot is stamped with the region-instance
// tags current at production, so a read at loop level l crosses iterations
// iff the producer's tag matches at l (same dynamic loop instance) but
// differs at l+1 (different body instance). Values produced outside the
// loop fail the level-l match; values produced between iterations (loop
// header) have no level-l+1 entry; both are skipped, so the tracer never
// over-reports — the property the fuzz oracle's soundness check rests on.
func (rt *Runtime) traceIns(fs *FrameState, ins *ir.Instr, addr uint64, predIdx int) {
	switch ins.Op {
	case ir.OpPhi:
		// Induction phis have their carried dependence broken by Step;
		// reduction phis carry only the reorderable accumulator, broken at
		// the holder op. Neither is a dependence the runtime honors.
		if ins.Induction || ins.Reduction {
			return
		}
		if predIdx >= 0 && predIdx < len(ins.Args) {
			rt.noteVec(rt.argVec(fs, ins.Args[predIdx]))
		}
	case ir.OpLoad:
		rt.noteVec(rt.argVec(fs, ins.Args[0]))
		if !ins.Reduction {
			// A reduction-marked load is the accumulator's broken old-value
			// read (a[i] += x); any other load observing an earlier
			// iteration's store is a genuine carried flow dependence.
			rt.noteSlot(rt.mem.Load(addr))
		}
	default:
		for i, a := range ins.Args {
			if i == ins.BreakArg {
				continue
			}
			rt.noteVec(rt.argVec(fs, a))
		}
		switch ins.Builtin {
		case "rand", "frand", "srand":
			rt.noteVec(rt.randVec)
		case "printval", "printstr", "printnl":
			rt.noteVec(rt.ioVec)
		}
	}
}

func (rt *Runtime) noteVec(vec shadow.Vec) {
	for _, l := range rt.depLevels {
		if l+1 >= len(vec) {
			continue
		}
		if vec[l].Tag == rt.tags[l] && vec[l+1].Tag != rt.tags[l+1] {
			rt.carried[int32(rt.stack[l].region.ID)] = true
		}
	}
}

func (rt *Runtime) noteSlot(s shadow.Slot) {
	for _, l := range rt.depLevels {
		if l+1 >= len(s.Tags) {
			continue
		}
		if s.Tags[l] == rt.tags[l] && s.Tags[l+1] != rt.tags[l+1] {
			rt.carried[int32(rt.stack[l].region.ID)] = true
		}
	}
}

// CarriedDeps returns the static region IDs of the loop regions that
// exhibited a dynamic loop-carried flow dependence, sorted. Nil unless the
// runtime was created with Options.TraceDeps.
func (rt *Runtime) CarriedDeps() []int {
	if rt.carried == nil {
		return nil
	}
	ids := make([]int, 0, len(rt.carried))
	for id := range rt.carried {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	return ids
}

// SetInternHook registers fn to observe every dictionary character interned
// by ExitRegion, in intern order (nil disables). The incremental profile
// cache uses the stream to record which dictionary entries a call's dynamic
// extent touches; cache splices that intern entries without a region exit
// must feed the hook themselves.
func (rt *Runtime) SetInternHook(fn func(int32)) { rt.onIntern = fn }

// ArgsTimely reports whether every argument vector is available no later
// than the frame's current control time at every tracked level. When it
// holds, a call's dynamic extent is a pure base-plus-delta function of the
// control time at the call site: argument availability can never perturb the
// times accumulated inside the extent, so a recorded extent with the same
// argument values replays exactly. (At untracked levels — at or above the
// entry depth — argument vectors always read zero, so only caller levels
// need checking.)
func (rt *Runtime) ArgsTimely(fs *FrameState, vecs []shadow.Vec) bool {
	d := rt.level()
	cv := fs.ctrlVec()
	tags := rt.tags
	for l := rt.lowLevel(); l < d; l++ {
		ct := cv.Read(l, tags[l])
		for _, v := range vecs {
			if v.Read(l, tags[l]) > ct {
				return false
			}
		}
	}
	return true
}

// ApplySkippedCall applies the caller-visible shadow effects of a call whose
// dynamic extent was replayed from the incremental cache instead of being
// executed. Provided ArgsTimely held at the call site, a real execution of
// the extent would have (a) advanced total work by the extent's work, (b)
// raised every enclosing region's critical-path watermark to the control
// time plus the extent's span (maxDelta), (c) made the call's result
// available at the control time plus the return offset (retDelta), and (d)
// appended the extent's root dictionary character to the parent region's
// child-run sequence. This reproduces exactly those effects. Region
// instance counters are deliberately not advanced: instance tags never
// reach the profile, and the skipped extent can no longer be confused with
// a live one.
func (rt *Runtime) ApplySkippedCall(fs *FrameState, call *ir.Instr, work, retDelta, maxDelta uint64, rootChar int32) {
	rt.totalWork += work
	d := rt.level()
	lo := rt.lowLevel()
	tags := rt.tags
	cv := fs.ctrlVec()
	if call.HasResult() {
		cur := fs.Regs.Get(call.ID)
		out := rt.scratch[:d]
		for l := 0; l < lo; l++ {
			out[l] = shadow.Entry{}
		}
		for l := lo; l < d; l++ {
			ct := cv.Read(l, tags[l])
			if m := ct + maxDelta; m > rt.maxTime[l] {
				rt.maxTime[l] = m
			}
			t := cur.Read(l, tags[l])
			if rv := ct + retDelta; rv > t {
				t = rv
			}
			out[l] = shadow.Entry{Time: t, Tag: tags[l]}
			if t > rt.maxTime[l] {
				rt.maxTime[l] = t
			}
		}
		fs.Regs.Set(call.ID, out, d)
	} else {
		for l := lo; l < d; l++ {
			ct := cv.Read(l, tags[l])
			if m := ct + maxDelta; m > rt.maxTime[l] {
				rt.maxTime[l] = m
			}
		}
	}
	if len(rt.stack) > 0 {
		parent := &rt.stack[len(rt.stack)-1]
		if n := len(parent.children); n > 0 && parent.children[n-1].Char == rootChar {
			parent.children[n-1].Count++
		} else {
			parent.children = append(parent.children, profile.Child{Char: rootChar, Count: 1})
		}
	} else {
		rt.prof.AddRoot(rootChar)
	}
}

// FinishCall merges the callee's return-value vector into the call
// instruction's result (the call's own Step already accounted for argument
// availability).
func (rt *Runtime) FinishCall(fs *FrameState, call *ir.Instr, ret shadow.Vec) {
	if !call.HasResult() {
		return
	}
	d := rt.level()
	cur := fs.Regs.Get(call.ID)
	out := rt.scratch[:d]
	for l := 0; l < d; l++ {
		t := cur.Read(l, rt.tags[l])
		if rv := ret.Read(l, rt.tags[l]); rv > t {
			t = rv
		}
		out[l] = shadow.Entry{Time: t, Tag: rt.tags[l]}
		if t > rt.maxTime[l] {
			rt.maxTime[l] = t
		}
	}
	fs.Regs.Set(call.ID, out, d)
}
