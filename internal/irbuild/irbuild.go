// Package irbuild lowers a type-checked Kr AST to IR and promotes scalar
// locals to SSA form (the mem2reg pass), mirroring the role LLVM plays in
// the paper's pipeline.
package irbuild

import (
	"kremlin/internal/ast"
	"kremlin/internal/cfg"
	"kremlin/internal/ir"
	"kremlin/internal/source"
	"kremlin/internal/token"
	"kremlin/internal/types"
)

// Build lowers file to an IR module. The file must have type-checked cleanly.
func Build(file *ast.File, info *types.Info, src *source.File, errs *source.ErrorList) *ir.Module {
	return BuildWith(file, info, src, errs, nil)
}

// A Cache supplies function bodies an earlier build lowered.
type Cache interface {
	// Fill gives the shell f — name, return kind, module and positions
	// set, with every global and function shell of the module built — the
	// body an earlier build lowered from the same source, and reports
	// whether it had one.
	Fill(f *ir.Func) bool
}

// BuildWith is Build taking each function's body from c when c has it
// (nil lowers every function).
func BuildWith(file *ast.File, info *types.Info, src *source.File, errs *source.ErrorList, c Cache) *ir.Module {
	m := &ir.Module{Name: file.Name, ByName: make(map[string]*ir.Func)}
	b := &builder{m: m, info: info, src: src, errs: errs}

	for _, g := range file.Globals {
		sym := info.Defs[g]
		irg := &ir.Global{Name: g.Name, Elem: g.Elem, Index: sym.Index}
		for _, d := range g.Dims {
			v, ok := constFoldInt(d, info)
			if !ok || v <= 0 {
				errs.Add(src.Name, src.Pos(d.Pos()), "global array dimension must be a positive constant")
				v = 1
			}
			irg.Dims = append(irg.Dims, v)
		}
		if g.Init != nil {
			irg.Init = constFoldValue(g.Init, info)
			if irg.Init == nil {
				errs.Add(src.Name, src.Pos(g.Init.Pos()), "global initializer must be constant")
			}
		}
		m.Globals = append(m.Globals, irg)
		b.globals = append(b.globals, irg)
	}

	// Create all function shells first so calls can reference them.
	for _, fd := range file.Funcs {
		fs := info.Funcs[fd.Name]
		if fs == nil || fs.Decl != fd {
			continue
		}
		f := &ir.Func{Name: fd.Name, Ret: fd.Ret, Module: m, Pos: fd.Pos(), EndPos: fd.End()}
		m.Funcs = append(m.Funcs, f)
		m.ByName[f.Name] = f
	}
	for _, fd := range file.Funcs {
		fs := info.Funcs[fd.Name]
		if fs == nil || fs.Decl != fd {
			continue
		}
		if f := m.ByName[fd.Name]; c == nil || !c.Fill(f) {
			b.buildFunc(f, fs)
		}
	}
	return m
}

// constFoldInt evaluates an int constant expression.
func constFoldInt(e ast.Expr, info *types.Info) (int64, bool) {
	v := constFoldValue(e, info)
	if ci, ok := v.(*ir.ConstInt); ok {
		return ci.V, true
	}
	return 0, false
}

// constFoldValue folds literal arithmetic; returns nil if not constant.
func constFoldValue(e ast.Expr, info *types.Info) ir.Value {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ir.ConstInt{V: e.Value}
	case *ast.FloatLit:
		return &ir.ConstFloat{V: e.Value}
	case *ast.BoolLit:
		return &ir.ConstBool{V: e.Value}
	case *ast.UnaryExpr:
		x := constFoldValue(e.X, info)
		switch x := x.(type) {
		case *ir.ConstInt:
			if e.Op == token.SUB {
				return &ir.ConstInt{V: -x.V}
			}
		case *ir.ConstFloat:
			if e.Op == token.SUB {
				return &ir.ConstFloat{V: -x.V}
			}
		case *ir.ConstBool:
			if e.Op == token.NOT {
				return &ir.ConstBool{V: !x.V}
			}
		}
	case *ast.BinaryExpr:
		x := constFoldValue(e.X, info)
		y := constFoldValue(e.Y, info)
		xi, xok := x.(*ir.ConstInt)
		yi, yok := y.(*ir.ConstInt)
		if xok && yok {
			switch e.Op {
			case token.ADD:
				return &ir.ConstInt{V: xi.V + yi.V}
			case token.SUB:
				return &ir.ConstInt{V: xi.V - yi.V}
			case token.MUL:
				return &ir.ConstInt{V: xi.V * yi.V}
			case token.QUO:
				if yi.V != 0 {
					return &ir.ConstInt{V: xi.V / yi.V}
				}
			case token.REM:
				if yi.V != 0 {
					return &ir.ConstInt{V: xi.V % yi.V}
				}
			}
		}
	}
	return nil
}

type loopFrame struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

type builder struct {
	m       *ir.Module
	info    *types.Info
	src     *source.File
	errs    *source.ErrorList
	globals []*ir.Global

	f     *ir.Func
	fs    *types.FuncSym
	cur   *ir.Block
	loops []loopFrame
	// slotOf maps a symbol to its local slot.
	slotOf map[*types.Symbol]int
}

func (b *builder) emit(i *ir.Instr) *ir.Instr {
	i.Block = b.cur
	i.ID = b.f.NewValueID()
	b.cur.Instrs = append(b.cur.Instrs, i)
	return i
}

func (b *builder) jump(to *ir.Block, pos int) {
	b.emit(&ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{to}, Pos: pos})
	ir.AddEdge(b.cur, to)
}

func (b *builder) br(cond ir.Value, then, els *ir.Block, pos int) {
	b.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{cond}, Targets: []*ir.Block{then, els}, Pos: pos})
	ir.AddEdge(b.cur, then)
	ir.AddEdge(b.cur, els)
}

func (b *builder) buildFunc(f *ir.Func, fs *types.FuncSym) {
	b.f = f
	b.fs = fs
	b.slotOf = make(map[*types.Symbol]int)
	f.SlotTypes = nil
	entry := f.NewBlock("entry")
	b.cur = entry

	for i, p := range fs.Params {
		pi := b.emit(&ir.Instr{Op: ir.OpParam, Slot: i, Typ: p.Type, Pos: p.Decl.Pos()})
		f.Params = append(f.Params, pi)
		slot := b.newSlot(p)
		b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: slot, Args: []ir.Value{pi}, Pos: p.Decl.Pos()})
	}
	b.block(fs.Decl.Body)
	// Implicit return if control falls off the end.
	if t := b.cur.Terminator(); t == nil {
		switch f.Ret {
		case ast.Void:
			b.emit(&ir.Instr{Op: ir.OpRet, Pos: fs.Decl.End()})
		case ast.Float:
			b.emit(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{&ir.ConstFloat{}}, Pos: fs.Decl.End()})
		case ast.Bool:
			b.emit(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{&ir.ConstBool{}}, Pos: fs.Decl.End()})
		default:
			b.emit(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{&ir.ConstInt{}}, Pos: fs.Decl.End()})
		}
	}
	f.NumSlots = len(f.SlotTypes)
	RemoveUnreachable(f)
	Mem2Reg(f)
}

func (b *builder) newSlot(sym *types.Symbol) int {
	slot := len(b.f.SlotTypes)
	b.f.SlotTypes = append(b.f.SlotTypes, sym.Type)
	b.slotOf[sym] = slot
	return slot
}

func (b *builder) block(blk *ast.Block) {
	for _, s := range blk.Stmts {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		b.block(s)
	case *ast.DeclStmt:
		b.declStmt(s.Decl)
	case *ast.AssignStmt:
		b.assign(s)
	case *ast.IncDecStmt:
		op := token.ADDASSIGN
		if s.Op == token.DEC {
			op = token.SUBASSIGN
		}
		b.assign(&ast.AssignStmt{LHS: s.LHS, Op: op, RHS: &ast.IntLit{LitPos: s.LHS.Pos(), Value: 1, Text: "1"}})
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.WhileStmt:
		b.forStmt(&ast.ForStmt{ForPos: s.WhilePos, Cond: s.Cond, Body: s.Body})
	case *ast.BreakStmt:
		if len(b.loops) > 0 {
			b.jump(b.loops[len(b.loops)-1].breakTo, s.Pos())
			b.cur = b.f.NewBlock("dead")
		}
	case *ast.ContinueStmt:
		if len(b.loops) > 0 {
			b.jump(b.loops[len(b.loops)-1].continueTo, s.Pos())
			b.cur = b.f.NewBlock("dead")
		}
	case *ast.ReturnStmt:
		ret := &ir.Instr{Op: ir.OpRet, Pos: s.Pos()}
		if s.Result != nil {
			v := b.expr(s.Result)
			v = b.convertTo(v, types.Scalar(b.f.Ret), s.Pos())
			ret.Args = []ir.Value{v}
		}
		b.emit(ret)
		b.cur = b.f.NewBlock("dead")
	case *ast.ExprStmt:
		b.expr(s.X)
	default:
		// Unreachable with a type-checked AST; report instead of panicking
		// so a malformed tree fails the compilation, not the process. The
		// module is discarded once the error list is non-empty.
		b.errs.Add(b.src.Name, b.src.Pos(s.Pos()), "internal: irbuild: unknown statement %T", s)
	}
}

func (b *builder) declStmt(d *ast.VarDecl) {
	sym := b.info.Defs[d]
	slot := b.newSlot(sym)
	if len(d.Dims) > 0 {
		alloc := &ir.Instr{Op: ir.OpAllocArray, Typ: sym.Type, Pos: d.Pos()}
		for _, dim := range d.Dims {
			alloc.Args = append(alloc.Args, b.expr(dim))
		}
		b.emit(alloc)
		b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: slot, Args: []ir.Value{alloc}, Pos: d.Pos()})
		return
	}
	var init ir.Value
	if d.Init != nil {
		init = b.convertTo(b.expr(d.Init), sym.Type, d.Pos())
	} else {
		init = zeroValue(sym.Type)
	}
	b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: slot, Args: []ir.Value{init}, Pos: d.Pos()})
}

func zeroValue(t types.Type) ir.Value {
	switch t.Elem {
	case ast.Float:
		return &ir.ConstFloat{}
	case ast.Bool:
		return &ir.ConstBool{}
	default:
		return &ir.ConstInt{}
	}
}

// lvalueCell lowers an assignable expression. For a local/global scalar it
// returns (slot or global, nil cell); for array elements it returns the
// 0-dim view cell.
type lvalue struct {
	slot   int // >= 0 when a local slot
	global *ir.Global
	cell   ir.Value // 0-dim view for element accesses
	typ    types.Type
}

func (b *builder) lvalue(e ast.Expr) lvalue {
	switch e := e.(type) {
	case *ast.Ident:
		sym := b.info.Uses[e]
		if sym.Kind == types.GlobalVar {
			return lvalue{slot: -1, global: b.globals[sym.Index], typ: sym.Type}
		}
		return lvalue{slot: b.slotOf[sym], typ: sym.Type}
	case *ast.IndexExpr:
		arr := b.expr(e.X)
		idx := b.expr(e.Index)
		view := b.emit(&ir.Instr{
			Op:   ir.OpView,
			Typ:  types.Type{Elem: arr.Type().Elem, Dims: arr.Type().Dims - 1},
			Args: []ir.Value{arr, idx},
			Pos:  e.Pos(),
		})
		return lvalue{slot: -1, cell: view, typ: view.Typ}
	}
	// Type checking already rejected this program; emit into a throwaway
	// slot so the builder finishes without crashing.
	b.errs.Add(b.src.Name, b.src.Pos(e.Pos()), "internal: irbuild: invalid lvalue %T", e)
	t := b.info.Exprs[e]
	slot := len(b.f.SlotTypes)
	b.f.SlotTypes = append(b.f.SlotTypes, t)
	return lvalue{slot: slot, typ: t}
}

func (b *builder) loadLValue(lv lvalue, pos int) ir.Value {
	switch {
	case lv.cell != nil:
		return b.emit(&ir.Instr{Op: ir.OpLoad, Typ: lv.typ, Args: []ir.Value{lv.cell}, Pos: pos})
	case lv.global != nil:
		g := b.emit(&ir.Instr{Op: ir.OpGlobal, Global: lv.global, Typ: lv.typ, Pos: pos})
		return b.emit(&ir.Instr{Op: ir.OpLoad, Typ: lv.typ, Args: []ir.Value{g}, Pos: pos})
	default:
		return b.emit(&ir.Instr{Op: ir.OpLoadSlot, Slot: lv.slot, Typ: lv.typ, Pos: pos})
	}
}

func (b *builder) storeLValue(lv lvalue, v ir.Value, pos int, reduction bool) {
	switch {
	case lv.cell != nil:
		st := &ir.Instr{Op: ir.OpStore, Args: []ir.Value{lv.cell, v}, Pos: pos}
		st.Reduction = reduction
		b.emit(st)
	case lv.global != nil:
		g := b.emit(&ir.Instr{Op: ir.OpGlobal, Global: lv.global, Typ: lv.typ, Pos: pos})
		st := &ir.Instr{Op: ir.OpStore, Args: []ir.Value{g, v}, Pos: pos}
		st.Reduction = reduction
		b.emit(st)
	default:
		b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: lv.slot, Args: []ir.Value{v}, Pos: pos})
	}
}

func (b *builder) assign(s *ast.AssignStmt) {
	lv := b.lvalue(s.LHS)
	rhs := b.expr(s.RHS)
	if s.Op == token.ASSIGN {
		b.storeLValue(lv, b.convertTo(rhs, lv.typ, s.LHS.Pos()), s.LHS.Pos(), false)
		return
	}
	// Compound assignment: load, op, store. The cell view (if any) is reused
	// so the subscript evaluates once, matching C semantics.
	old := b.loadLValue(lv, s.LHS.Pos())
	var kind ir.BinKind
	switch s.Op {
	case token.ADDASSIGN:
		kind = ir.BinAdd
	case token.SUBASSIGN:
		kind = ir.BinSub
	case token.MULASSIGN:
		kind = ir.BinMul
	case token.QUOASSIGN:
		kind = ir.BinDiv
	}
	l, r := b.usualArith(old, rhs, s.LHS.Pos())
	res := b.emit(&ir.Instr{Op: ir.OpBin, Bin: kind, Typ: l.Type(), Args: []ir.Value{l, r}, Pos: s.LHS.Pos()})
	b.storeLValue(lv, b.convertTo(res, lv.typ, s.LHS.Pos()), s.LHS.Pos(), false)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	then := b.f.NewBlock("then")
	join := b.f.NewBlock("endif")
	els := join
	if s.Else != nil {
		els = b.f.NewBlock("else")
	}
	cond := b.expr(s.Cond)
	b.br(cond, then, els, s.Pos())
	b.cur = then
	b.block(s.Then)
	if b.cur.Terminator() == nil {
		b.jump(join, s.Then.End())
	}
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		if b.cur.Terminator() == nil {
			b.jump(join, s.Else.End())
		}
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	header := b.f.NewBlock("loop")
	body := b.f.NewBlock("body")
	latch := b.f.NewBlock("latch")
	exit := b.f.NewBlock("exit")
	b.jump(header, s.Pos())

	b.cur = header
	header.Instrs = nil // loop position marker: first instruction pos is the loop stmt
	if s.Cond != nil {
		cond := b.expr(s.Cond)
		b.br(cond, body, exit, s.Pos())
	} else {
		b.jump(body, s.Pos())
	}

	b.loops = append(b.loops, loopFrame{breakTo: exit, continueTo: latch})
	b.cur = body
	b.block(s.Body)
	if b.cur.Terminator() == nil {
		b.jump(latch, s.Body.End())
	}
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = latch
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.jump(header, s.Pos())
	b.cur = exit
}

// usualArith applies the usual arithmetic conversions to a pair of numeric
// operands, inserting int→float conversions where needed.
func (b *builder) usualArith(x, y ir.Value, pos int) (ir.Value, ir.Value) {
	xt, yt := x.Type(), y.Type()
	if xt.Elem == ast.Float && yt.Elem == ast.Int {
		y = b.convertTo(y, types.Scalar(ast.Float), pos)
	} else if xt.Elem == ast.Int && yt.Elem == ast.Float {
		x = b.convertTo(x, types.Scalar(ast.Float), pos)
	}
	return x, y
}

func (b *builder) convertTo(v ir.Value, t types.Type, pos int) ir.Value {
	if v.Type() == t || !t.IsScalar() {
		return v
	}
	if v.Type().Elem == ast.Int && t.Elem == ast.Float {
		if ci, ok := v.(*ir.ConstInt); ok {
			return &ir.ConstFloat{V: float64(ci.V)}
		}
		return b.emit(&ir.Instr{Op: ir.OpConvert, Typ: t, Args: []ir.Value{v}, Pos: pos})
	}
	if v.Type().Elem == ast.Float && t.Elem == ast.Int {
		return b.emit(&ir.Instr{Op: ir.OpConvert, Typ: t, Args: []ir.Value{v}, Pos: pos})
	}
	return v
}

func (b *builder) expr(e ast.Expr) ir.Value {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ir.ConstInt{V: e.Value}
	case *ast.FloatLit:
		return &ir.ConstFloat{V: e.Value}
	case *ast.BoolLit:
		return &ir.ConstBool{V: e.Value}
	case *ast.Ident:
		sym := b.info.Uses[e]
		if sym == nil {
			return &ir.ConstInt{}
		}
		if sym.Kind == types.GlobalVar {
			g := b.emit(&ir.Instr{Op: ir.OpGlobal, Global: b.globals[sym.Index], Typ: sym.Type, Pos: e.Pos()})
			if sym.Type.IsScalar() {
				return b.emit(&ir.Instr{Op: ir.OpLoad, Typ: sym.Type, Args: []ir.Value{g}, Pos: e.Pos()})
			}
			return g
		}
		return b.emit(&ir.Instr{Op: ir.OpLoadSlot, Slot: b.slotOf[sym], Typ: sym.Type, Pos: e.Pos()})
	case *ast.IndexExpr:
		arr := b.expr(e.X)
		idx := b.expr(e.Index)
		vt := types.Type{Elem: arr.Type().Elem, Dims: arr.Type().Dims - 1}
		view := b.emit(&ir.Instr{Op: ir.OpView, Typ: vt, Args: []ir.Value{arr, idx}, Pos: e.Pos()})
		if vt.Dims == 0 {
			return b.emit(&ir.Instr{Op: ir.OpLoad, Typ: vt, Args: []ir.Value{view}, Pos: e.Pos()})
		}
		return view
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.UnaryExpr:
		x := b.expr(e.X)
		if e.Op == token.SUB {
			return b.emit(&ir.Instr{Op: ir.OpNeg, Typ: x.Type(), Args: []ir.Value{x}, Pos: e.Pos()})
		}
		return b.emit(&ir.Instr{Op: ir.OpNot, Typ: types.Scalar(ast.Bool), Args: []ir.Value{x}, Pos: e.Pos()})
	case *ast.CallExpr:
		return b.call(e)
	case *ast.StringLit:
		return &ir.ConstInt{} // only reachable after a type error
	}
	b.errs.Add(b.src.Name, b.src.Pos(e.Pos()), "internal: irbuild: unknown expression %T", e)
	return zeroValue(b.info.Exprs[e])
}

func (b *builder) binary(e *ast.BinaryExpr) ir.Value {
	if e.Op == token.LAND || e.Op == token.LOR {
		return b.shortCircuit(e)
	}
	x := b.expr(e.X)
	y := b.expr(e.Y)
	x, y = b.usualArith(x, y, e.Pos())
	var kind ir.BinKind
	switch e.Op {
	case token.ADD:
		kind = ir.BinAdd
	case token.SUB:
		kind = ir.BinSub
	case token.MUL:
		kind = ir.BinMul
	case token.QUO:
		kind = ir.BinDiv
	case token.REM:
		kind = ir.BinRem
	case token.EQL:
		kind = ir.BinEq
	case token.NEQ:
		kind = ir.BinNe
	case token.LSS:
		kind = ir.BinLt
	case token.LEQ:
		kind = ir.BinLe
	case token.GTR:
		kind = ir.BinGt
	case token.GEQ:
		kind = ir.BinGe
	default:
		b.errs.Add(b.src.Name, b.src.Pos(e.Pos()), "internal: irbuild: bad binary op %s", e.Op)
		return &ir.ConstInt{}
	}
	typ := x.Type()
	if kind.IsComparison() {
		typ = types.Scalar(ast.Bool)
	}
	return b.emit(&ir.Instr{Op: ir.OpBin, Bin: kind, Typ: typ, Args: []ir.Value{x, y}, Pos: e.Pos()})
}

// shortCircuit lowers && and || to control flow through a temporary slot;
// mem2reg then turns the slot into a phi.
func (b *builder) shortCircuit(e *ast.BinaryExpr) ir.Value {
	slot := len(b.f.SlotTypes)
	b.f.SlotTypes = append(b.f.SlotTypes, types.Scalar(ast.Bool))
	evalY := b.f.NewBlock("sc.rhs")
	join := b.f.NewBlock("sc.join")

	x := b.expr(e.X)
	b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: slot, Args: []ir.Value{x}, Pos: e.Pos()})
	if e.Op == token.LAND {
		b.br(x, evalY, join, e.Pos())
	} else {
		b.br(x, join, evalY, e.Pos())
	}
	b.cur = evalY
	y := b.expr(e.Y)
	b.emit(&ir.Instr{Op: ir.OpStoreSlot, Slot: slot, Args: []ir.Value{y}, Pos: e.Y.Pos()})
	b.jump(join, e.Y.Pos())
	b.cur = join
	return b.emit(&ir.Instr{Op: ir.OpLoadSlot, Slot: slot, Typ: types.Scalar(ast.Bool), Pos: e.Pos()})
}

func (b *builder) call(e *ast.CallExpr) ir.Value {
	if types.IsBuiltin(e.Name) {
		return b.builtinCall(e)
	}
	callee := b.m.ByName[e.Name]
	fs := b.info.Funcs[e.Name]
	call := &ir.Instr{Op: ir.OpCall, Callee: callee, Typ: types.Scalar(fs.Ret), Pos: e.Pos()}
	for i, a := range e.Args {
		v := b.expr(a)
		if i < len(fs.Params) {
			v = b.convertTo(v, fs.Params[i].Type, a.Pos())
		}
		call.Args = append(call.Args, v)
	}
	return b.emit(call)
}

func (b *builder) builtinCall(e *ast.CallExpr) ir.Value {
	switch e.Name {
	case "int":
		return b.convertTo(b.expr(e.Args[0]), types.Scalar(ast.Int), e.Pos())
	case "float":
		return b.convertTo(b.expr(e.Args[0]), types.Scalar(ast.Float), e.Pos())
	case "print":
		for _, a := range e.Args {
			if s, ok := a.(*ast.StringLit); ok {
				b.emit(&ir.Instr{Op: ir.OpBuiltin, Builtin: "printstr", Aux: s.Value, Typ: types.Scalar(ast.Void), Pos: a.Pos()})
				continue
			}
			v := b.expr(a)
			b.emit(&ir.Instr{Op: ir.OpBuiltin, Builtin: "printval", Args: []ir.Value{v}, Typ: types.Scalar(ast.Void), Pos: a.Pos()})
		}
		b.emit(&ir.Instr{Op: ir.OpBuiltin, Builtin: "printnl", Typ: types.Scalar(ast.Void), Pos: e.Pos()})
		return &ir.ConstInt{}
	}
	call := &ir.Instr{Op: ir.OpBuiltin, Builtin: e.Name, Pos: e.Pos()}
	for _, a := range e.Args {
		call.Args = append(call.Args, b.expr(a))
	}
	// Result typing.
	switch e.Name {
	case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos", "pow", "frand":
		call.Typ = types.Scalar(ast.Float)
		for i, a := range call.Args {
			call.Args[i] = b.convertTo(a, types.Scalar(ast.Float), e.Pos())
		}
	case "abs", "rand", "dim":
		call.Typ = types.Scalar(ast.Int)
	case "srand":
		call.Typ = types.Scalar(ast.Void)
	case "min", "max":
		if call.Args[0].Type().Elem == ast.Float || call.Args[1].Type().Elem == ast.Float {
			call.Typ = types.Scalar(ast.Float)
			call.Args[0] = b.convertTo(call.Args[0], types.Scalar(ast.Float), e.Pos())
			call.Args[1] = b.convertTo(call.Args[1], types.Scalar(ast.Float), e.Pos())
		} else {
			call.Typ = types.Scalar(ast.Int)
		}
	}
	return b.emit(call)
}

// RemoveUnreachable prunes blocks not reachable from the entry, repairing
// predecessor lists.
func RemoveUnreachable(f *ir.Func) {
	reach := map[*ir.Block]bool{}
	var stack []*ir.Block
	stack = append(stack, f.Entry())
	reach[f.Entry()] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var kept []*ir.Block
	for _, blk := range f.Blocks {
		if reach[blk] {
			kept = append(kept, blk)
		}
	}
	for _, blk := range kept {
		var preds []*ir.Block
		for _, p := range blk.Preds {
			if reach[p] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
	}
	f.Blocks = kept
	for i, blk := range f.Blocks {
		blk.ID = i
	}
}

// Mem2Reg promotes local slots to SSA values, inserting phi nodes at
// iterated dominance frontiers and renaming along the dominator tree.
func Mem2Reg(f *ir.Func) {
	g := cfg.New(f)
	idom := g.Dominators()
	df := g.DominanceFrontiers(idom)
	domChildren := cfg.DomTree(idom)
	nslots := len(f.SlotTypes)

	// Collect defining blocks per slot.
	defBlocks := make([][]int, nslots)
	for bi, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			if ins.Op == ir.OpStoreSlot {
				defBlocks[ins.Slot] = append(defBlocks[ins.Slot], bi)
			}
		}
	}

	// Insert phis at iterated dominance frontiers.
	phis := make([]map[int]*ir.Instr, len(f.Blocks)) // block -> slot -> phi
	for i := range phis {
		phis[i] = make(map[int]*ir.Instr)
	}
	for slot := 0; slot < nslots; slot++ {
		work := append([]int(nil), defBlocks[slot]...)
		inWork := make(map[int]bool)
		hasPhi := make(map[int]bool)
		for _, w := range work {
			inWork[w] = true
		}
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			for _, v := range df[u] {
				if hasPhi[v] {
					continue
				}
				hasPhi[v] = true
				blk := f.Blocks[v]
				phi := &ir.Instr{
					Op:   ir.OpPhi,
					Slot: slot,
					Typ:  f.SlotTypes[slot],
					Args: make([]ir.Value, len(blk.Preds)),
				}
				phi.Block = blk
				phis[v][slot] = phi
				if !inWork[v] {
					inWork[v] = true
					work = append(work, v)
				}
			}
		}
	}

	// Number the phis block by block, in slot order: the frontiers come
	// in map order, so numbering as they are found would give one source
	// different value IDs on different compiles (content hashes key on
	// them).
	for _, m := range phis {
		if len(m) == 0 {
			continue
		}
		for slot := 0; slot < nslots; slot++ {
			if phi, ok := m[slot]; ok {
				phi.ID = f.NewValueID()
			}
		}
	}

	// Rename along the dominator tree.
	replace := make(map[*ir.Instr]ir.Value)
	var resolve func(v ir.Value) ir.Value
	resolve = func(v ir.Value) ir.Value {
		for {
			ins, ok := v.(*ir.Instr)
			if !ok {
				return v
			}
			r, ok := replace[ins]
			if !ok {
				return v
			}
			v = r
		}
	}

	stacks := make([][]ir.Value, nslots)
	var rename func(bi int)
	rename = func(bi int) {
		blk := f.Blocks[bi]
		pushed := make([]int, 0, 4)

		for slot, phi := range phis[bi] {
			stacks[slot] = append(stacks[slot], phi)
			pushed = append(pushed, slot)
		}
		var keep []*ir.Instr
		for _, ins := range blk.Instrs {
			// Resolve operands first (defs dominate uses).
			for i, a := range ins.Args {
				ins.Args[i] = resolve(a)
			}
			switch ins.Op {
			case ir.OpLoadSlot:
				var cur ir.Value
				if s := stacks[ins.Slot]; len(s) > 0 {
					cur = s[len(s)-1]
				} else {
					cur = zeroValue(f.SlotTypes[ins.Slot])
				}
				replace[ins] = cur
				continue // drop the load
			case ir.OpStoreSlot:
				stacks[ins.Slot] = append(stacks[ins.Slot], ins.Args[0])
				pushed = append(pushed, ins.Slot)
				continue // drop the store
			}
			keep = append(keep, ins)
		}
		blk.Instrs = keep

		// Fill successor phi operands.
		for _, succ := range blk.Succs {
			si := g.Index(succ)
			// This block's position among succ's preds.
			for pi, p := range succ.Preds {
				if p != blk {
					continue
				}
				for slot, phi := range phis[si] {
					var cur ir.Value
					if s := stacks[slot]; len(s) > 0 {
						cur = s[len(s)-1]
					} else {
						cur = zeroValue(f.SlotTypes[slot])
					}
					phi.Args[pi] = cur
				}
			}
		}
		for _, c := range domChildren[bi] {
			rename(c)
		}
		// Pop in reverse.
		for i := len(pushed) - 1; i >= 0; i-- {
			s := stacks[pushed[i]]
			stacks[pushed[i]] = s[:len(s)-1]
		}
	}
	rename(0)

	// Splice phis at block starts and resolve any remaining operand
	// references (phi args pointing at dropped loads).
	for bi, blk := range f.Blocks {
		if len(phis[bi]) == 0 {
			continue
		}
		var ordered []*ir.Instr
		// Deterministic order: by slot.
		for slot := 0; slot < nslots; slot++ {
			if phi, ok := phis[bi][slot]; ok {
				ordered = append(ordered, phi)
			}
		}
		blk.Instrs = append(ordered, blk.Instrs...)
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			for i, a := range ins.Args {
				ins.Args[i] = resolve(a)
			}
		}
	}
	PrunePhis(f)
}

// PrunePhis removes phi nodes whose values are used only by other dead phis
// (or by nothing), turning the non-pruned SSA that iterated-dominance-
// frontier insertion produces into pruned SSA. Dead phis carry no program
// value, but they would still execute: a dead header phi for a loop-body
// local reads the previous iteration's value through the shadow memory,
// manufacturing a loop-carried dependence that neither the program nor the
// static dependence analysis (internal/depcheck) has any use for.
func PrunePhis(f *ir.Func) {
	// live = phis referenced (transitively) by a non-phi instruction.
	live := make(map[*ir.Instr]bool)
	var work []*ir.Instr
	markLive := func(v ir.Value) {
		if phi, ok := v.(*ir.Instr); ok && phi.Op == ir.OpPhi && !live[phi] {
			live[phi] = true
			work = append(work, phi)
		}
	}
	for _, blk := range f.Blocks {
		for _, ins := range blk.Instrs {
			if ins.Op == ir.OpPhi {
				continue
			}
			for _, a := range ins.Args {
				markLive(a)
			}
		}
	}
	for len(work) > 0 {
		phi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range phi.Args {
			markLive(a)
		}
	}
	for _, blk := range f.Blocks {
		keep := blk.Instrs[:0]
		for _, ins := range blk.Instrs {
			if ins.Op == ir.OpPhi && !live[ins] {
				continue
			}
			keep = append(keep, ins)
		}
		blk.Instrs = keep
	}
}
