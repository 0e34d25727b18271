package frontcache

import (
	"crypto/sha256"

	"kremlin/internal/analysis"
	"kremlin/internal/ir"
	"kremlin/internal/irbundle"
	"kremlin/internal/irhash"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// irEntry is one function as irbuild lowered it and analysis annotated
// it: its body in irbundle's per-function layout, with positions as they
// were at the declaration offset pos and callees as indices into a name
// table, plus what the later passes would otherwise recompute from it.
type irEntry struct {
	pos       int
	shape     irbundle.FuncShape
	numSlots  int
	slotTypes []types.Type
	callees   []string
	body      []byte
	stats     analysis.Stats
	local     [32]byte
	pure      bool
}

// Bytes estimates the memory e holds.
func (e *irEntry) Bytes() int64 {
	n := int64(len(e.body)) + 16*int64(len(e.slotTypes)) + 160
	for _, c := range e.callees {
		n += 16 + int64(len(c))
	}
	return n
}

// Lowering is one compile's use of the IR entries. As an irbuild.Cache it
// fills each function whose source text and visible declarations match a
// stored entry; Annotate and Hash then finish the functions that missed
// and store them.
//
// An entry is keyed on the function's source bytes [Pos, EndPos) and a
// digest of every top-level declaration a function can see: each global
// with its extents and initializer, in order (bodies name globals by
// index), and every function's name, parameter types and return kind
// (bodies name callees by name). Those are all the lowering reads, so a
// hit is the body the lowering would build, up to positions: the
// function's text is unchanged, so every position moves by the distance
// its declaration moved.
type Lowering struct {
	scope *Scope
	src   string
	info  *types.Info
	decls []byte // "ir" tag and declaration digest; nil until the first Fill
	buf   []byte

	hits   map[*ir.Func]*irEntry
	misses map[*ir.Func]Key
	stats  map[*ir.Func]analysis.Stats
}

// Lowering opens the IR entries for a compile of src, type-checked as
// info.
func (s *Scope) Lowering(src *source.File, info *types.Info) *Lowering {
	return &Lowering{
		scope:  s,
		src:    src.Content,
		info:   info,
		hits:   make(map[*ir.Func]*irEntry),
		misses: make(map[*ir.Func]Key),
		stats:  make(map[*ir.Func]analysis.Stats),
	}
}

// declDigest hashes the declarations every function of m can see.
func declDigest(m *ir.Module, info *types.Info) []byte {
	c := &irhash.Canon{}
	c.S("kremlin-ir-decls")
	c.U(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		c.Global(g)
	}
	c.U(uint64(len(info.FuncList)))
	for _, fs := range info.FuncList {
		c.S(fs.Name)
		c.U(uint64(fs.Ret))
		c.U(uint64(len(fs.Params)))
		for _, p := range fs.Params {
			c.U(uint64(p.Type.Elem))
			c.U(uint64(p.Type.Dims))
		}
	}
	sum := sha256.Sum256(c.Buf)
	return append([]byte("ir\x00"), sum[:]...)
}

// Fill gives f its stored body, if there is one (irbuild.Cache).
func (l *Lowering) Fill(f *ir.Func) bool {
	if l.decls == nil {
		l.decls = declDigest(f.Module, l.info)
	}
	l.buf = append(append(l.buf[:0], l.decls...), l.src[f.Pos:f.EndPos]...)
	k := l.scope.Key(l.buf)
	if v, ok := l.scope.Get(KindIR, k); ok {
		if e := v.(*irEntry); e.fill(f) {
			l.hits[f] = e
			return true
		}
	}
	l.misses[f] = k
	return false
}

// fill decodes e into the shell f.
func (e *irEntry) fill(f *ir.Func) bool {
	callees := make([]*ir.Func, len(e.callees))
	for i, name := range e.callees {
		if callees[i] = f.Module.ByName[name]; callees[i] == nil {
			return false
		}
	}
	if err := irbundle.DecodeFunc(e.body, f, e.shape, f.Module.Globals, callees, f.Pos-e.pos); err != nil {
		f.Blocks, f.Params = nil, nil
		f.SetIDBounds(0, 0)
		return false
	}
	f.NumSlots = e.numSlots
	f.SlotTypes = append([]types.Type(nil), e.slotTypes...)
	return true
}

// Annotate runs the dependence-breaking analysis on every function of mod
// that missed and returns the module's stats, taking each hit's from its
// entry: a stored body is already annotated.
func (l *Lowering) Annotate(mod *ir.Module) analysis.Stats {
	var st analysis.Stats
	for _, f := range mod.Funcs {
		if e, ok := l.hits[f]; ok {
			st.Add(e.stats)
			continue
		}
		fs := analysis.RunFunc(f)
		l.stats[f] = fs
		st.Add(fs)
	}
	return st
}

// Hash returns mod's content hashes, taking each hit's local sum and
// purity bit from its entry, and stores every function that missed. It
// runs after Annotate, on a module that compiled without errors.
func (l *Lowering) Hash(mod *ir.Module) *irhash.Module {
	known := make(map[*ir.Func]irhash.Func, len(l.hits))
	for f, e := range l.hits {
		known[f] = irhash.Func{Local: e.local, Pure: e.pure}
	}
	h := irhash.AnalyzeWith(mod, known)
	for _, f := range mod.Funcs {
		if k, ok := l.misses[f]; ok {
			if e := newIREntry(f, l.stats[f], h.Funcs[f]); e != nil {
				l.scope.Put(k, e)
			}
		}
	}
	return h
}

// newIREntry encodes f, or returns nil when a position of f lies outside
// its declaration, where rebasing would move it wrongly.
func newIREntry(f *ir.Func, st analysis.Stats, h *irhash.Func) *irEntry {
	e := &irEntry{
		pos:       f.Pos,
		shape:     irbundle.FuncShape{NumValues: f.NumValues(), NumParams: len(f.Params), NumBlocks: len(f.Blocks)},
		numSlots:  f.NumSlots,
		slotTypes: append([]types.Type(nil), f.SlotTypes...),
		stats:     st,
		local:     h.Local,
		pure:      h.Pure,
	}
	idx := make(map[*ir.Func]int)
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Pos != 0 && (ins.Pos < f.Pos || ins.Pos > f.EndPos) {
				return nil
			}
			if g := ins.Callee; g != nil {
				if _, ok := idx[g]; !ok {
					idx[g] = len(e.callees)
					e.callees = append(e.callees, g.Name)
				}
			}
		}
	}
	e.body = irbundle.AppendFunc(nil, f, idx)
	return e
}
