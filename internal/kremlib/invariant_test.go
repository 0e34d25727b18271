package kremlib

import (
	"fmt"
	"math/rand"
	"testing"

	"kremlin/internal/ast"
	"kremlin/internal/ir"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
)

// checkCtrlInvariant asserts the invariant that lets compacted templates
// drop jump entries: at every tracked level, a frame's control time whose
// tag matches the current region instance is at most the open region's
// critical path there, so replaying the bare baseline never raises it.
func checkCtrlInvariant(rt *Runtime, fs *FrameState) error {
	cv := fs.ctrlVec()
	for l := rt.lowLevel(); l < rt.level(); l++ {
		if t := cv.Read(l, rt.tags[l]); t > rt.maxTime[l] {
			return fmt.Errorf("level %d: control time %d above the critical path %d", l, t, rt.maxTime[l])
		}
	}
	return nil
}

// TestCtrlTimeBelowCriticalPath drives the runtime through random
// sequences of the events that move control times and critical paths —
// region enter, iterate and exit, branch blocks pushing control entries
// (replayed plain and compacted, and stepped), loads and stores, calls
// into new frames and back, and calls replayed from the incremental cache
// (ApplySkippedCall) — and checks the invariant for every live frame at
// every block entry, over several depth windows.
func TestCtrlTimeBelowCriticalPath(t *testing.T) {
	f := synthFunc()
	ins := func(id int, op ir.Op, bin ir.BinKind, args ...ir.Value) *ir.Instr {
		i := blockIns(id, op, args...)
		i.Bin = bin
		return i
	}
	p1, p2, p3 := ins(1, ir.OpBin, ir.BinAdd), ins(2, ir.OpBin, ir.BinMul), ins(3, ir.OpBin, ir.BinDiv)
	// Three blocks: arithmetic ending in a branch, memory ending in a
	// branch, and a jump-ended block whose values are live out.
	sum := ins(10, ir.OpBin, ir.BinAdd, p1, p2)
	prod := ins(11, ir.OpBin, ir.BinMul, sum, p3)
	ld := ins(12, ir.OpLoad, 0, sum)
	quot := ins(13, ir.OpBin, ir.BinDiv, ld, prod)
	cond := ins(14, ir.OpBin, ir.BinLt, prod, p3)
	bodies := [][]*ir.Instr{
		{sum, prod, cond, ins(20, ir.OpBr, 0, cond)},
		{ld, ins(21, ir.OpStore, 0, sum, ld), ins(22, ir.OpBin, ir.BinAdd, ld, p1), ins(23, ir.OpBr, 0, ld)},
		{quot, ins(24, ir.OpJump, 0)},
	}
	var blocks []*ir.Block
	plain := make([]BlockTemplate, len(bodies))
	for k, body := range bodies {
		b := f.NewBlock(fmt.Sprint("b", k))
		b.Instrs = body
		blocks = append(blocks, b)
		plain[k] = BlockTemplateOf(body)
	}
	// Every body value is read by a phi elsewhere, except the branch
	// condition, which compaction inlines, and the memory block's add,
	// which stays a dead leaf.
	use := f.NewBlock("use")
	use.Instrs = []*ir.Instr{ins(30, ir.OpPhi, 0, sum, prod, ld, quot)}
	cp := NewCompactor(f)
	compact := make([]BlockTemplate, len(bodies))
	for k, body := range bodies {
		compact[k] = cp.Template(body)
	}
	call := ins(40, ir.OpCall, 0, p1)
	call.Callee = &ir.Func{Name: "g", Ret: ast.Int}
	exit := f.NewBlock("exit")

	fn := &ir.Func{Name: "synth"}
	reg := func(id int, kind regions.Kind, parent *regions.Region) *regions.Region {
		return &regions.Region{ID: id, Kind: kind, Func: fn, Parent: parent}
	}
	for _, opts := range []Options{{}, {MinDepth: 1}, {MinDepth: 2}, {MaxDepth: 3}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rt := NewRuntime(profile.New(), opts)
			root := reg(0, regions.FuncRegion, nil)
			frames := []*FrameState{rt.NewFrame(f, nil)}
			rt.EnterRegion(root)
			var lastChar int32 = -1
			for step := 0; step < 3000; step++ {
				fs := frames[len(frames)-1]
				for _, fr := range frames {
					if err := checkCtrlInvariant(rt, fr); err != nil {
						t.Fatalf("%+v seed %d step %d (frame depth %d): %v", opts, seed, step, fr.EntryDepth, err)
					}
				}
				top := fs.EntryDepth + 1 // the frame's function region stays open
				switch op := rng.Intn(10); {
				case op < 4: // a block, replayed or stepped
					k := rng.Intn(len(bodies))
					rt.AtBlock(fs, blocks[k])
					rt.PopSameBranch(fs, blocks[k])
					addrs := []uint64{uint64(rng.Intn(4)) * 8, 0}
					addrs[1] = addrs[0]
					var work uint64
					for _, i := range bodies[k] {
						work += i.Latency()
					}
					var last shadow.Vec
					switch rng.Intn(3) {
					case 0:
						last = rt.StepBlock(fs, nil, plain[k], addrs, work)
					case 1:
						last = rt.StepBlock(fs, nil, compact[k], addrs, work)
					default:
						n := 0
						for _, i := range bodies[k] {
							var a uint64
							if i.Op == ir.OpLoad || i.Op == ir.OpStore {
								a = addrs[n]
								n++
							}
							last = rt.Step(fs, i, a, -1)
						}
						if bodies[k][len(bodies[k])-1].Op == ir.OpBr {
							rt.PushCtrl(fs, blocks[k], exit, last)
						}
						continue
					}
					if bodies[k][len(bodies[k])-1].Op == ir.OpBr {
						rt.PushBlockCtrl(fs, blocks[k], exit, last)
					}
				case op == 4 && rt.Depth() < 6:
					rt.EnterRegion(reg(1+rt.Depth(), regions.LoopRegion, nil))
				case op == 5 && rt.Depth() > top:
					rt.IterateRegion(reg(9, regions.BodyRegion, nil))
				case op == 6 && rt.Depth() > top:
					lastChar = rt.ExitRegion()
				case op == 7 && len(frames) < 4:
					rt.Step(fs, call, 0, -1)
					callee := rt.NewFrame(f, fs)
					rt.EnterRegion(reg(20, regions.FuncRegion, nil))
					frames = append(frames, callee)
				case op == 8 && len(frames) > 1:
					rt.Unwind(fs.EntryDepth)
					frames = frames[:len(frames)-1]
					rt.FinishCall(frames[len(frames)-1], call, fs.RetVec)
					rt.ReleaseFrame(fs)
				case op == 9 && lastChar >= 0:
					rt.ApplySkippedCall(fs, call, 7, uint64(rng.Intn(5)), uint64(rng.Intn(12)), lastChar)
				}
			}
		}
	}
}
