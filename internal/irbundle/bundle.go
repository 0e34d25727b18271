// Package irbundle serializes a compiled, analyzed Kr module to a portable
// byte bundle (format KRIB1) and reconstructs it — the wire format behind
// `kremlin-cc -emit-ir` and the daemon's precompiled-IR submission path
// (`POST /v1/jobs` with Content-Type application/x-kremlin-ir).
//
// A bundle carries exactly what the back half of the pipeline needs and
// nothing the front half can fabricate: the program name, the source file's
// line structure (offsets of the newline bytes, so region labels resolve to
// the same file:line without shipping the source text), the global table,
// and every function's CFG and instruction stream — including the dense
// value/block IDs and the analysis annotations (Induction/Reduction/
// BreakArg). IDs and annotations are preserved verbatim rather than
// recomputed so that a decoded module is bit-identical to the encoder's:
// region numbering, instrumentation events, bytecode, profiles, and the
// incremental cache's canonical-IR content hashes all come out the same.
// AppendFunc and DecodeFunc write and read one function's body in the same
// layout; the daemon's front cache (internal/frontcache) stores lowered
// functions with them.
//
// Layout (all integers varint/uvarint, strings length-prefixed):
//
//	"KRIB1\n"            magic
//	uvarint version      (currently 1)
//	program name, source size, newline offsets (delta-coded)
//	global table         (name, elem, dims, optional const initializer)
//	function headers     (name, ret, pos, value/block ID bounds, param count)
//	function bodies      (blocks: id, name, preds; instrs: full field set,
//	                      operands as value-ID refs or inline constants)
//	8 bytes LE           FNV-64a of everything before the trailer
//
// Decoding is fully bounds-checked and never panics on arbitrary bytes, and
// every decoded module passes a structural/type/SSA validator (see
// validate.go) before it is returned: bundles are an untrusted input surface
// for the daemon, so anything the compiler could not have produced — bad
// opcodes, type-confused operands, uses that don't dominate, irreducible
// control flow, phi/pred mismatches — is rejected with a diagnostic error,
// not discovered as an interpreter panic.
package irbundle

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"kremlin/internal/ast"
	"kremlin/internal/ir"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// Magic is the KRIB1 file prefix, doubling as the sniffable header for
// servers that accept both source and bundle submissions.
const Magic = "KRIB1\n"

const version = 1

// Decode-side structural limits. They bound decoder allocations against
// hostile headers; all are far above anything the Kr front end emits.
const (
	maxSourceBytes = 1 << 26 // 64 MiB of (synthetic) source
	maxLineStarts  = 1 << 21
	maxStrLen      = 1 << 16
	maxGlobals     = 1 << 16
	maxArrayDims   = 16
	maxArrayWords  = 1 << 40 // static extent product cap (runtime heap cap still applies)
	maxFuncs       = 1 << 14
	maxBlocksPer   = 1 << 16
	maxInstrsPer   = 1 << 20
	maxValuesPer   = 1 << 20 // register-file bound per function
	maxArgsPer     = 1 << 12
)

// Encode serializes a compiled module plus its source line structure.
func Encode(file *source.File, mod *ir.Module) []byte {
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, Magic...)
	w.u(version)
	w.s(file.Name)

	// Line structure: total size plus delta-coded newline offsets.
	w.u(uint64(len(file.Content)))
	nls := newlineOffsets(file.Content)
	w.u(uint64(len(nls)))
	prev := 0
	for _, off := range nls {
		w.u(uint64(off - prev))
		prev = off
	}

	// Globals.
	w.u(uint64(len(mod.Globals)))
	for _, g := range mod.Globals {
		w.s(g.Name)
		w.u(uint64(g.Elem))
		w.u(uint64(len(g.Dims)))
		for _, d := range g.Dims {
			w.i(d)
		}
		w.constant(g.Init)
	}

	// Function headers first, so call operands can refer to any function by
	// index while bodies decode.
	fnIdx := make(map[*ir.Func]int, len(mod.Funcs))
	w.u(uint64(len(mod.Funcs)))
	for i, f := range mod.Funcs {
		fnIdx[f] = i
		w.s(f.Name)
		w.u(uint64(f.Ret))
		w.i(int64(f.Pos))
		w.i(int64(f.EndPos))
		w.u(uint64(f.NumValues()))
		w.u(uint64(len(f.Params)))
		w.u(uint64(len(f.Blocks)))
	}

	// Bodies.
	for _, f := range mod.Funcs {
		w.body(f, fnIdx)
	}

	h := fnv.New64a()
	_, _ = h.Write(w.buf)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	return append(w.buf, sum[:]...)
}

func newlineOffsets(s string) []int {
	var out []int
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, i)
		}
	}
	return out
}

// AppendFunc appends f's body — its blocks, instructions and parameter
// IDs — in a bundle's per-function layout. callees maps every function f
// calls to its index in the table DecodeFunc will be handed.
func AppendFunc(buf []byte, f *ir.Func, callees map[*ir.Func]int) []byte {
	w := &writer{buf: buf}
	w.body(f, callees)
	return w.buf
}

type writer struct{ buf []byte }

func (w *writer) body(f *ir.Func, fnIdx map[*ir.Func]int) {
	blkIdx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blkIdx[b] = i
	}
	for _, b := range f.Blocks {
		w.u(uint64(b.ID))
		w.s(b.Name)
		w.u(uint64(len(b.Preds)))
		for _, p := range b.Preds {
			w.u(uint64(blkIdx[p]))
		}
		w.u(uint64(len(b.Instrs)))
		for _, ins := range b.Instrs {
			w.instr(ins, fnIdx, blkIdx)
		}
	}
	for _, p := range f.Params {
		w.u(uint64(p.ID))
	}
}

func (w *writer) u(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) i(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) s(s string) {
	w.u(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// constant tags: 0 none, 1 int, 2 float (IEEE bits), 3 bool.
func (w *writer) constant(v ir.Value) {
	switch c := v.(type) {
	case nil:
		w.u(0)
	case *ir.ConstInt:
		w.u(1)
		w.i(c.V)
	case *ir.ConstFloat:
		w.u(2)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.V))
		w.buf = append(w.buf, b[:]...)
	case *ir.ConstBool:
		w.u(3)
		if c.V {
			w.u(1)
		} else {
			w.u(0)
		}
	default:
		// Instruction-valued initializers do not exist in compiled modules.
		w.u(0)
	}
}

func (w *writer) instr(ins *ir.Instr, fnIdx map[*ir.Func]int, blkIdx map[*ir.Block]int) {
	w.u(uint64(ins.Op))
	w.u(uint64(ins.Bin))
	w.u(uint64(ins.Typ.Elem))
	w.u(uint64(ins.Typ.Dims))
	w.u(uint64(len(ins.Args)))
	for _, a := range ins.Args {
		if ai, ok := a.(*ir.Instr); ok {
			w.u(4) // value-ID reference
			w.u(uint64(ai.ID))
			continue
		}
		w.constant(a)
	}
	w.i(int64(ins.Slot))
	if ins.Global != nil {
		w.u(uint64(ins.Global.Index) + 1)
	} else {
		w.u(0)
	}
	if ins.Callee != nil {
		w.u(uint64(fnIdx[ins.Callee]) + 1)
	} else {
		w.u(0)
	}
	w.s(ins.Builtin)
	w.s(ins.Aux)
	w.u(uint64(len(ins.Targets)))
	for _, t := range ins.Targets {
		w.u(uint64(blkIdx[t]))
	}
	w.i(int64(ins.Pos))
	w.u(uint64(ins.ID))
	flags := uint64(0)
	if ins.Induction {
		flags |= 1
	}
	if ins.Reduction {
		flags |= 2
	}
	w.u(flags)
	w.i(int64(ins.BreakArg))
}

// Decoded is a reconstructed bundle: everything the back half of the
// pipeline (regions → instrument → depcheck → bytecode) needs.
type Decoded struct {
	File   *source.File
	Module *ir.Module
}

// Decode parses and validates a KRIB1 bundle. The returned module has
// passed the full structural/type/SSA validator; any deviation comes back
// as a descriptive error and never as a panic.
func Decode(data []byte) (*Decoded, error) {
	if len(data) < len(Magic)+8 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("not a KRIB1 bundle (bad magic)")
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	_, _ = h.Write(payload)
	if binary.LittleEndian.Uint64(trailer) != h.Sum64() {
		return nil, fmt.Errorf("bundle checksum mismatch")
	}
	r := &reader{b: payload, off: len(Magic)}
	if v := r.u(); r.err == nil && v != version {
		return nil, fmt.Errorf("unsupported bundle version %d", v)
	}

	name := r.str()
	file := r.file(name)

	mod := &ir.Module{Name: name, ByName: map[string]*ir.Func{}}
	nGlobals := r.n(maxGlobals, "global count")
	for i := 0; i < nGlobals && r.err == nil; i++ {
		mod.Globals = append(mod.Globals, r.global(i))
	}

	nFuncs := r.n(maxFuncs, "function count")
	hdrs := make([]funcHeader, 0, nFuncs)
	for i := 0; i < nFuncs && r.err == nil; i++ {
		hd := r.funcHeader()
		if r.err == nil {
			if _, dup := mod.ByName[hd.f.Name]; dup {
				r.fail("duplicate function %q", hd.f.Name)
				break
			}
			hd.f.Module = mod
			mod.Funcs = append(mod.Funcs, hd.f)
			mod.ByName[hd.f.Name] = hd.f
		}
		hdrs = append(hdrs, hd)
	}
	r.globals, r.callees = mod.Globals, mod.Funcs
	for _, hd := range hdrs {
		if r.err != nil {
			break
		}
		r.funcBody(hd.f, hd.FuncShape)
	}
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes after last function", len(payload)-r.off)
	}
	if r.err != nil {
		return nil, fmt.Errorf("malformed bundle: %w", r.err)
	}
	if err := validate(mod); err != nil {
		return nil, fmt.Errorf("invalid bundle: %w", err)
	}
	return &Decoded{File: file, Module: mod}, nil
}

// reader is a bounds-checked varint cursor; the first failure latches err
// and turns every subsequent read into a no-op.
type reader struct {
	b   []byte
	off int
	err error

	// What a function body's indices resolve against, and how far its
	// positions move (see DecodeFunc).
	globals []*ir.Global
	callees []*ir.Func
	shift   int

	// Per-body scratch, reused across the functions of one bundle.
	byID    []*ir.Instr
	refs    []argRef
	seenBlk []bool
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// n reads a size field, failing beyond limit.
func (r *reader) n(limit uint64, what string) int {
	v := r.u()
	if r.err == nil && v > limit {
		r.fail("%s %d exceeds limit %d", what, v, limit)
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.n(maxStrLen, "string length")
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.b) {
		r.fail("truncated string at offset %d", r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) f8() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// file reconstructs the source line structure: a synthetic Content of the
// recorded size with newlines at the recorded offsets, so every Pos lookup
// (region labels, diagnostics) resolves to the original file:line:col.
func (r *reader) file(name string) *source.File {
	size := r.n(maxSourceBytes, "source size")
	nNl := r.n(maxLineStarts, "newline count")
	if r.err != nil || nNl > size {
		r.fail("newline count %d exceeds source size %d", nNl, size)
		return source.NewFile(name, "")
	}
	offs := make([]int, 0, nNl)
	at := -1
	for i := 0; i < nNl && r.err == nil; i++ {
		d := r.n(uint64(size), "newline delta")
		if i > 0 && d == 0 {
			r.fail("newline offsets not strictly increasing")
			break
		}
		at += d
		if i == 0 {
			at++ // first delta is the absolute offset
		}
		if at >= size {
			r.fail("newline offset %d beyond source size %d", at, size)
			break
		}
		offs = append(offs, at)
	}
	if r.err != nil {
		return source.NewFile(name, "")
	}
	content := []byte(strings.Repeat(" ", size))
	for _, off := range offs {
		content[off] = '\n'
	}
	return source.NewFile(name, string(content))
}

func (r *reader) global(idx int) *ir.Global {
	g := &ir.Global{Name: r.str(), Elem: ast.BasicKind(r.u()), Index: idx}
	if r.err == nil && !scalarKind(g.Elem) {
		r.fail("global %q: bad element kind %d", g.Name, g.Elem)
	}
	nd := r.n(maxArrayDims, "global dims")
	words := int64(1)
	for i := 0; i < nd && r.err == nil; i++ {
		d := r.i()
		if d < 1 || d > maxArrayWords {
			r.fail("global %q: bad extent %d", g.Name, d)
			break
		}
		g.Dims = append(g.Dims, d)
		if words > maxArrayWords/d {
			r.fail("global %q: extent product too large", g.Name)
			break
		}
		words *= d
	}
	g.Init = r.constant()
	if r.err == nil && g.Init != nil {
		if g.IsArray() {
			r.fail("global %q: array with initializer", g.Name)
		} else if g.Init.Type().Elem != g.Elem {
			r.fail("global %q: initializer kind mismatch", g.Name)
		}
	}
	return g
}

func (r *reader) constant() ir.Value { return r.constantTag(r.u()) }

func (r *reader) constantTag(tag uint64) ir.Value {
	switch tag {
	case 0:
		return nil
	case 1:
		return &ir.ConstInt{V: r.i()}
	case 2:
		return &ir.ConstFloat{V: r.f8()}
	case 3:
		return &ir.ConstBool{V: r.u() != 0}
	default:
		r.fail("bad constant tag %d", tag)
		return nil
	}
}

// argRef marks an operand encoded as a value-ID reference, resolved after
// the whole function body has been read.
type argRef struct {
	ins *ir.Instr
	idx int
	id  int
}

// FuncShape is what a function's header tells the decoder of its body.
type FuncShape struct {
	NumValues int // value-ID bound
	NumParams int
	NumBlocks int
}

type funcHeader struct {
	f *ir.Func
	FuncShape
}

func (r *reader) funcHeader() funcHeader {
	f := &ir.Func{Name: r.str(), Ret: ast.BasicKind(r.u())}
	if r.err == nil && f.Ret > ast.Void {
		r.fail("func %q: bad return kind", f.Name)
	}
	f.Pos = int(r.i())
	f.EndPos = int(r.i())
	return funcHeader{f: f, FuncShape: FuncShape{
		NumValues: r.n(maxValuesPer, "value count"),
		NumParams: r.n(maxArgsPer, "param count"),
		NumBlocks: r.n(maxBlocksPer, "block count"),
	}}
}

// DecodeFunc fills the shell f with a body AppendFunc wrote: globals
// resolve by index into globals, callees by index into callees, and every
// nonzero position moves by shift (position 0 marks an instruction with
// no source position, such as a phi). Only the decoder's bounds checks
// run; Decode alone validates what it returns.
func DecodeFunc(data []byte, f *ir.Func, shape FuncShape, globals []*ir.Global, callees []*ir.Func, shift int) error {
	r := &reader{b: data, globals: globals, callees: callees, shift: shift}
	r.funcBody(f, shape)
	if r.err == nil && r.off != len(data) {
		r.fail("%d trailing bytes after the function body", len(data)-r.off)
	}
	return r.err
}

// Lower bounds on the encoded size of a block and of an instruction (one
// byte per field), which cap what a header can make the decoder allocate.
const (
	minBlockBytes = 4
	minInstrBytes = 15
)

func (r *reader) funcBody(f *ir.Func, hd FuncShape) {
	if hd.NumBlocks == 0 {
		r.fail("func %q: no blocks", f.Name)
		return
	}
	if hd.NumBlocks > (len(r.b)-r.off)/minBlockBytes {
		r.fail("func %q: %d blocks overrun the input", f.Name, hd.NumBlocks)
		return
	}
	// Allocate every block up front: preds and branch targets refer to
	// blocks by position, including forward references.
	blocks := make([]ir.Block, hd.NumBlocks)
	f.Blocks = make([]*ir.Block, hd.NumBlocks)
	for i := range blocks {
		blocks[i] = ir.Block{Func: f, LoopID: -1}
		f.Blocks[i] = &blocks[i]
	}

	if cap(r.byID) < hd.NumValues {
		r.byID = make([]*ir.Instr, hd.NumValues)
	}
	byID := r.byID[:hd.NumValues]
	clear(byID)
	refs := r.refs[:0]
	seenBlkID := r.seenBlk[:0]
	maxBlkID := 0
	nInstrs := 0
	for _, b := range f.Blocks {
		if r.err != nil {
			return
		}
		b.ID = r.n(maxBlocksPer, "block ID")
		if b.ID >= len(seenBlkID) {
			seenBlkID = append(seenBlkID, make([]bool, b.ID+1-len(seenBlkID))...)
		}
		if r.err == nil && seenBlkID[b.ID] {
			r.fail("func %q: duplicate block ID %d", f.Name, b.ID)
			return
		}
		seenBlkID[b.ID] = true
		if b.ID > maxBlkID {
			maxBlkID = b.ID
		}
		b.Name = r.str()
		nPreds := r.n(uint64(hd.NumBlocks), "pred count")
		for i := 0; i < nPreds && r.err == nil; i++ {
			pi := r.n(uint64(hd.NumBlocks)-1, "pred index")
			if r.err == nil {
				b.Preds = append(b.Preds, f.Blocks[pi])
			}
		}
		nIns := r.n(maxInstrsPer, "instr count")
		nInstrs += nIns
		if nInstrs > maxInstrsPer {
			r.fail("func %q: instruction count exceeds limit", f.Name)
			return
		}
		if r.err != nil || nIns > (len(r.b)-r.off)/minInstrBytes {
			r.fail("func %q: %d instructions overrun the input", f.Name, nIns)
			return
		}
		slab := make([]ir.Instr, nIns)
		b.Instrs = make([]*ir.Instr, 0, nIns)
		for i := 0; i < nIns && r.err == nil; i++ {
			ins := &slab[i]
			r.instr(ins, f, hd, byID, &refs)
			if r.err == nil {
				ins.Block = b
				b.Instrs = append(b.Instrs, ins)
			}
		}
	}
	r.refs, r.seenBlk = refs, seenBlkID
	if r.err != nil {
		return
	}

	// Resolve operand references now that every instruction exists.
	for _, ref := range refs {
		var def *ir.Instr
		if ref.id < len(byID) {
			def = byID[ref.id]
		}
		if def == nil {
			r.fail("func %q: operand %%%d is never defined", f.Name, ref.id)
			return
		}
		ref.ins.Args[ref.idx] = def
	}

	// Params resolve to OpParam instructions by value ID.
	for i := 0; i < hd.NumParams && r.err == nil; i++ {
		id := r.n(maxValuesPer, "param ID")
		if r.err != nil {
			return
		}
		var p *ir.Instr
		if id < len(byID) {
			p = byID[id]
		}
		if p == nil || p.Op != ir.OpParam || p.Slot != i {
			r.fail("func %q: param %d does not resolve to its OpParam", f.Name, i)
			return
		}
		f.Params = append(f.Params, p)
	}

	// Succs derive from terminator targets; validate() checks they mirror
	// the encoded preds.
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			b.Succs = append(b.Succs, t.Targets...)
		}
	}
	f.SetIDBounds(hd.NumValues, maxBlkID+1)
}

func (r *reader) instr(ins *ir.Instr, f *ir.Func, hd FuncShape, byID []*ir.Instr, refs *[]argRef) {
	ins.Op = ir.Op(r.u())
	ins.Bin = ir.BinKind(r.u())
	ins.Typ = types.Type{Elem: ast.BasicKind(r.u()), Dims: int(r.n(maxArrayDims, "type dims"))}
	if r.err == nil && (ins.Op <= ir.OpInvalid || ins.Op > ir.OpRet ||
		ins.Op == ir.OpLoadSlot || ins.Op == ir.OpStoreSlot) {
		r.fail("func %q: bad opcode %d", f.Name, ins.Op)
		return
	}
	if r.err == nil && (ins.Bin < ir.BinAdd || ins.Bin > ir.BinOr) {
		r.fail("func %q: bad binary kind %d", f.Name, ins.Bin)
		return
	}
	if r.err == nil && ins.Typ.Elem > ast.Void {
		r.fail("func %q: bad element kind %d", f.Name, ins.Typ.Elem)
		return
	}
	nArgs := r.n(maxArgsPer, "arg count")
	ins.Args = make([]ir.Value, nArgs)
	for i := 0; i < nArgs && r.err == nil; i++ {
		if tag := r.u(); tag == 4 {
			id := r.n(maxValuesPer, "operand ID")
			*refs = append(*refs, argRef{ins: ins, idx: i, id: id})
		} else if r.err == nil {
			ins.Args[i] = r.constantTag(tag)
			if r.err == nil && ins.Args[i] == nil {
				r.fail("func %q: nil operand", f.Name)
			}
		}
	}
	ins.Slot = int(r.i())
	if gi := r.n(uint64(len(r.globals)), "global index"); r.err == nil && gi > 0 {
		ins.Global = r.globals[gi-1]
	}
	if fi := r.n(uint64(len(r.callees)), "callee index"); r.err == nil && fi > 0 {
		ins.Callee = r.callees[fi-1]
	}
	ins.Builtin = r.str()
	ins.Aux = r.str()
	nTargets := r.n(2, "target count")
	for i := 0; i < nTargets && r.err == nil; i++ {
		ti := r.n(uint64(hd.NumBlocks)-1, "target index")
		if r.err == nil {
			ins.Targets = append(ins.Targets, f.Blocks[ti])
		}
	}
	if ins.Pos = int(r.i()); ins.Pos != 0 {
		ins.Pos += r.shift
	}
	ins.ID = r.n(maxValuesPer, "value ID")
	if r.err == nil && ins.ID >= hd.NumValues {
		r.fail("func %q: value ID %d outside declared bound %d", f.Name, ins.ID, hd.NumValues)
	}
	if r.err != nil {
		return
	}
	if byID[ins.ID] != nil {
		r.fail("func %q: duplicate value ID %d", f.Name, ins.ID)
		return
	}
	byID[ins.ID] = ins
	flags := r.u()
	ins.Induction = flags&1 != 0
	ins.Reduction = flags&2 != 0
	ins.BreakArg = int(r.i())
	if r.err == nil && (ins.BreakArg < -1 || ins.BreakArg >= len(ins.Args)) {
		r.fail("func %q: BreakArg %d out of range", f.Name, ins.BreakArg)
	}
}

func scalarKind(k ast.BasicKind) bool {
	return k == ast.Int || k == ast.Float || k == ast.Bool
}
