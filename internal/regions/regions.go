// Package regions extracts the static region structure of a compiled Kr
// program. Following the paper, a region is a code range whose parallelism
// is measured from entry to exit; Kremlin places regions around functions
// and loops (plus one body region per loop, whose dynamic instances are the
// loop's iterations — the children that make a DOALL loop's
// self-parallelism equal its iteration count).
package regions

import (
	"fmt"
	"sort"

	"kremlin/internal/cfg"
	"kremlin/internal/ir"
	"kremlin/internal/source"
)

// Kind classifies a region.
type Kind int

// The region kinds.
const (
	FuncRegion Kind = iota
	LoopRegion
	BodyRegion // one dynamic instance per loop iteration
)

func (k Kind) String() string {
	switch k {
	case FuncRegion:
		return "func"
	case LoopRegion:
		return "loop"
	case BodyRegion:
		return "body"
	}
	return "?"
}

// Safety is the static loop-dependence verdict attached to a region by
// internal/depcheck: whether parallelizing the region is provably safe
// (no loop-carried flow dependence), provably unsafe, or undecided.
type Safety uint8

// The safety verdicts. The zero value is SafetyUnproven so regions the
// analyzer never looks at (function regions, loops in unanalyzed modules)
// default to "unproven".
const (
	SafetyUnproven Safety = iota // analysis could not decide
	SafetyProven                 // provably free of loop-carried flow dependences
	SafetyRefuted                // a definite loop-carried dependence exists
)

func (s Safety) String() string {
	switch s {
	case SafetyProven:
		return "proven"
	case SafetyRefuted:
		return "refuted"
	}
	return "unproven"
}

// Region is a node of the static region tree.
type Region struct {
	ID       int
	Kind     Kind
	Func     *ir.Func
	Parent   *Region
	Children []*Region
	// Callees are the functions invoked from directly within this region
	// (not within a child region); their function regions are additional
	// children in the region graph.
	Callees            []*ir.Func
	Name               string
	File               string
	StartLine, EndLine int
	// Safety is the depcheck verdict for loop regions (SafetyUnproven until
	// the analyzer runs; always SafetyUnproven for func/body regions).
	Safety Safety
}

func (r *Region) String() string {
	return fmt.Sprintf("%s %s (%s:%d-%d)", r.Kind, r.Name, r.File, r.StartLine, r.EndLine)
}

// Label is the stable human-readable identity used in plans and tests,
// e.g. "tracking.kr:49 loop imageBlur" or "func main".
func (r *Region) Label() string {
	if r.Kind == FuncRegion {
		return "func " + r.Name
	}
	return fmt.Sprintf("%s:%d %s %s", r.File, r.StartLine, r.Kind, r.Func.Name)
}

// FuncInfo is the per-function region structure used by the runtime.
type FuncInfo struct {
	Func *ir.Func
	Root *Region
	// NestPath maps each block to the chain of regions containing it,
	// outermost (the function region) first.
	NestPath map[*ir.Block][]*Region
	// HeaderOf maps a loop header block to its loop region.
	HeaderOf map[*ir.Block]*Region
	// Graph and Idom are the function's CFG and immediate dominators, which
	// the static dependence analysis and the instrumentation tables reuse;
	// a compiled program has dropped them (ReleaseCFGs). Loops is the loop
	// forest, outermost loops first.
	Graph *cfg.Graph
	Idom  []int
	Loops []*cfg.Loop
	// LoopOf maps a loop region to its cfg loop.
	LoopOf map[*Region]*cfg.Loop
}

// Program is the whole-module region structure.
type Program struct {
	Module  *ir.Module
	Regions []*Region // indexed by Region.ID
	PerFunc map[*ir.Func]*FuncInfo
	Src     *source.File
}

// ByLabel returns the region with the given label, or nil.
func (p *Program) ByLabel(label string) *Region {
	for _, r := range p.Regions {
		if r.Label() == label {
			return r
		}
	}
	return nil
}

// ReleaseCFGs drops every function's Graph and Idom. A compile calls it
// once the dependence analysis and the instrumentation tables are built, so
// a compiled program does not keep them alive; depcheck.Analyze and
// instrument.Build need a Program that still has them.
func (p *Program) ReleaseCFGs() {
	for _, fi := range p.PerFunc {
		fi.Graph, fi.Idom = nil, nil
	}
}

// Analyze builds the region structure of m.
func Analyze(m *ir.Module, src *source.File) *Program {
	p := &Program{Module: m, PerFunc: make(map[*ir.Func]*FuncInfo), Src: src}
	newRegion := func(k Kind, f *ir.Func, parent *Region, name string, start, end int) *Region {
		r := &Region{ID: len(p.Regions), Kind: k, Func: f, Parent: parent, Name: name, File: src.Name,
			StartLine: start, EndLine: end}
		p.Regions = append(p.Regions, r)
		if parent != nil {
			parent.Children = append(parent.Children, r)
		}
		return r
	}

	// Pass 1: create function regions so call edges can refer to them.
	for _, f := range m.Funcs {
		start := src.Pos(f.Pos).Line
		end := src.Pos(f.EndPos).Line
		root := newRegion(FuncRegion, f, nil, f.Name, start, end)
		p.PerFunc[f] = &FuncInfo{
			Func:     f,
			Root:     root,
			NestPath: make(map[*ir.Block][]*Region),
			HeaderOf: make(map[*ir.Block]*Region),
			LoopOf:   make(map[*Region]*cfg.Loop),
		}
	}

	// Pass 2: loops.
	for _, f := range m.Funcs {
		fi := p.PerFunc[f]
		g := cfg.New(f)
		idom := g.Dominators()
		loops := g.Loops(idom)
		fi.Graph, fi.Idom, fi.Loops = g, idom, loops

		// Create loop+body regions outermost-first so parents exist.
		sort.SliceStable(loops, func(i, j int) bool { return loops[i].Depth < loops[j].Depth })
		loopRegion := make(map[*cfg.Loop]*Region)
		bodyRegion := make(map[*cfg.Loop]*Region)
		for _, l := range loops {
			parent := fi.Root
			if l.Parent != nil {
				parent = bodyRegion[l.Parent]
			}
			start, end := loopLines(src, l)
			lr := newRegion(LoopRegion, f, parent, fmt.Sprintf("loop@%d", start), start, end)
			br := newRegion(BodyRegion, f, lr, fmt.Sprintf("iter@%d", start), start, end)
			loopRegion[l] = lr
			bodyRegion[l] = br
			fi.HeaderOf[l.Header] = lr
			fi.LoopOf[lr] = l
		}

		// Innermost loop per block.
		innermost := make(map[*ir.Block]*cfg.Loop)
		for _, l := range loops { // outermost first; later (deeper) loops overwrite
			for _, b := range l.Blocks {
				if cur := innermost[b]; cur == nil || l.Depth > cur.Depth {
					innermost[b] = l
				}
			}
		}
		for _, b := range f.Blocks {
			path := []*Region{fi.Root}
			if l := innermost[b]; l != nil {
				b.LoopID = l.ID
				var chain []*cfg.Loop
				for x := l; x != nil; x = x.Parent {
					chain = append(chain, x)
				}
				for i := len(chain) - 1; i >= 0; i-- {
					path = append(path, loopRegion[chain[i]], bodyRegion[chain[i]])
				}
			}
			fi.NestPath[b] = path
		}

		// Call edges: attach callee functions to the innermost region of the
		// calling block.
		seen := map[[2]int]bool{}
		for _, b := range f.Blocks {
			path := fi.NestPath[b]
			owner := path[len(path)-1]
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpCall {
					key := [2]int{owner.ID, p.PerFunc[ins.Callee].Root.ID}
					if !seen[key] {
						seen[key] = true
						owner.Callees = append(owner.Callees, ins.Callee)
					}
				}
			}
		}
	}
	return p
}

// loopLines computes the source line extent of a loop.
func loopLines(src *source.File, l *cfg.Loop) (int, int) {
	start, end := 1<<30, 0
	for _, b := range l.Blocks {
		for _, ins := range b.Instrs {
			if ins.Pos <= 0 {
				continue
			}
			line := src.Pos(ins.Pos).Line
			if line < start {
				start = line
			}
			if line > end {
				end = line
			}
		}
	}
	if end == 0 {
		start, end = 1, 1
	}
	return start, end
}

// EdgeEvents describes the region transitions taken when control flows
// from one block to another within a function.
type EdgeEvents struct {
	Exit    []*Region // regions exited, innermost first
	Enter   []*Region // regions entered, outermost first
	Iterate *Region   // body region restarted by a loop back edge, or nil
}

// Edge computes the region events for the CFG edge from -> to.
// The result is deterministic and cheap enough to compute on the fly, but
// the interpreter memoizes it per edge.
func (fi *FuncInfo) Edge(from, to *ir.Block) EdgeEvents {
	pa := fi.NestPath[from]
	pb := fi.NestPath[to]

	// Back edge to a header of a loop containing `from`: the common prefix
	// includes that loop's body region; the body is iterated.
	if lr, ok := fi.HeaderOf[to]; ok {
		l := fi.LoopOf[lr]
		if l.Contains(from) {
			// Find body region index in pb (the region after lr).
			cut := len(pb)
			for i, r := range pb {
				if r == lr {
					cut = i + 1 // index of the body region
					break
				}
			}
			ev := EdgeEvents{Iterate: pb[cut]}
			// Exit anything inside the body on the `from` side.
			if len(pa) > cut+1 {
				for i := len(pa) - 1; i > cut; i-- {
					ev.Exit = append(ev.Exit, pa[i])
				}
			}
			return ev
		}
	}

	i := 0
	for i < len(pa) && i < len(pb) && pa[i] == pb[i] {
		i++
	}
	ev := EdgeEvents{}
	for j := len(pa) - 1; j >= i; j-- {
		ev.Exit = append(ev.Exit, pa[j])
	}
	ev.Enter = append(ev.Enter, pb[i:]...)
	return ev
}
