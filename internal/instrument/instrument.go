// Package instrument computes the static side of Kremlin's two
// instrumentation steps (§3): critical-path instrumentation (which branch
// pushes a control dependence, and where it pops — the branch's immediate
// postdominator, per the control-dependence-stack scheme of Xin & Zhang)
// and region instrumentation (which CFG edges enter, exit, or iterate
// regions). The interpreter consults this table instead of rewriting code,
// which is the natural equivalent of static instrumentation for an IR that
// is executed in-process.
package instrument

import (
	"kremlin/internal/ir"
	"kremlin/internal/regions"
)

// FuncInstr is the per-function instrumentation table.
type FuncInstr struct {
	Fn *ir.Func
	// PopAt maps a two-successor (branch) block to the block at which its
	// control-dependence entry is popped; nil when the branch's
	// postdominator is the function exit (the entry then pops with the
	// frame).
	PopAt map[*ir.Block]*ir.Block
	// Events holds the precomputed region transitions of every CFG edge,
	// keyed by from.ID<<32|to.ID. Populated eagerly in Build so the table
	// is read-only afterwards and safe to share across concurrent runs.
	Events map[uint64]regions.EdgeEvents
	Info   *regions.FuncInfo
}

func edgeKey(from, to *ir.Block) uint64 {
	return uint64(from.ID)<<32 | uint64(uint32(to.ID))
}

// EdgeEvents returns the region events of the edge from→to. All edges in
// the function CFG are precomputed; unknown edges (not in any block's Succs)
// are computed on the fly without mutating the table.
func (fi *FuncInstr) EdgeEvents(from, to *ir.Block) regions.EdgeEvents {
	if ev, ok := fi.Events[edgeKey(from, to)]; ok {
		return ev
	}
	return fi.Info.Edge(from, to)
}

// Module is the instrumentation table for a whole program.
type Module struct {
	Prog    *regions.Program
	PerFunc map[*ir.Func]*FuncInstr
}

// Build computes instrumentation tables for every function of prog.
func Build(prog *regions.Program) *Module {
	mi := &Module{Prog: prog, PerFunc: make(map[*ir.Func]*FuncInstr)}
	for _, f := range prog.Module.Funcs {
		fi := &FuncInstr{
			Fn:     f,
			PopAt:  make(map[*ir.Block]*ir.Block),
			Events: make(map[uint64]regions.EdgeEvents),
			Info:   prog.PerFunc[f],
		}
		g := fi.Info.Graph
		ipdom := g.Postdominators()
		n := len(f.Blocks)
		for i, b := range f.Blocks {
			for _, s := range b.Succs {
				fi.Events[edgeKey(b, s)] = fi.Info.Edge(b, s)
			}
			if len(b.Succs) < 2 {
				continue
			}
			if p := ipdom[i]; p >= 0 && p < n {
				fi.PopAt[b] = g.Blocks[p]
			} else {
				fi.PopAt[b] = nil // pops with the frame
			}
		}
		mi.PerFunc[f] = fi
	}
	return mi
}
