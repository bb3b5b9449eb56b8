package minic

import "fmt"

// Check resolves names and types for a parsed program, annotating the AST in
// place (expression types, resolved symbols, frame offsets, frame sizes).
// It returns the first error found.
func Check(prog *Program) error {
	return check(prog, len(prog.Globals), len(prog.Funcs))
}

// CheckLinked checks a program whose last libGlobals globals and libFuncs
// functions come from a library that has already been checked on its own.
// Every declaration takes part in the declaration checks (duplicates,
// builtin shadowing, global/function collisions, main), but only the
// program's own globals and functions are checked and annotated: the
// library's nodes are only read, so one checked library may be shared by
// concurrent links.
func CheckLinked(prog *Program, libGlobals, libFuncs int) error {
	return check(prog, len(prog.Globals)-libGlobals, len(prog.Funcs)-libFuncs)
}

func check(prog *Program, ownGlobals, ownFuncs int) error {
	c := &checker{
		prog:    prog,
		globals: make(map[string]*Symbol, len(prog.Globals)),
		funcs:   make(map[string]*FuncDecl, len(prog.Funcs)),
	}
	if err := c.declareProgram(ownGlobals); err != nil {
		return err
	}
	for _, fn := range prog.Funcs[:ownFuncs] {
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog    *Program
	globals map[string]*Symbol
	funcs   map[string]*FuncDecl

	// Per-function state.
	fn        *FuncDecl
	scopes    []map[string]*Symbol
	frameSize int64
	loopDepth int
}

// declareProgram enters every global and function into the program scope and
// checks the declarations themselves. Only the first ownGlobals globals have
// their initializers checked (and annotated).
func (c *checker) declareProgram(ownGlobals int) error {
	for i, g := range c.prog.Globals {
		if c.globals[g.Name] != nil {
			return errf(g.Pos, "duplicate global %q", g.Name)
		}
		if g.Type.IsVoid() {
			return errf(g.Pos, "global %q has void type", g.Name)
		}
		if g.Init != nil && i < ownGlobals {
			if err := c.checkGlobalInit(g); err != nil {
				return err
			}
		}
		c.globals[g.Name] = &Symbol{Name: g.Name, Type: g.Type, Global: true, ParamIdx: -1}
	}
	for _, fn := range c.prog.Funcs {
		if c.funcs[fn.Name] != nil {
			return errf(fn.Pos, "duplicate function %q", fn.Name)
		}
		if isBuiltinName(fn.Name) != BuiltinNone {
			return errf(fn.Pos, "function %q shadows a builtin", fn.Name)
		}
		if c.globals[fn.Name] != nil {
			return errf(fn.Pos, "function %q collides with a global", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	main := c.funcs["main"]
	if main == nil {
		return errf(Pos{Line: 1, Col: 1}, "program %q has no main function", c.prog.Name)
	}
	if len(main.Params) != 0 || !main.Ret.IsInt() {
		return errf(main.Pos, "main must be declared as: int main()")
	}
	return nil
}

// checkGlobalInit permits only constant scalar initializers on globals.
func (c *checker) checkGlobalInit(g *VarDecl) error {
	switch init := g.Init.(type) {
	case *IntLit:
		if !g.Type.IsInt() {
			return errf(g.Pos, "global %q: integer initializer for %s", g.Name, g.Type)
		}
		init.SetType(TypeInt)
	case *FloatLit:
		if !g.Type.IsFloat() {
			return errf(g.Pos, "global %q: float initializer for %s", g.Name, g.Type)
		}
		init.SetType(TypeFloat)
	default:
		return errf(g.Pos, "global %q: initializer must be a literal constant", g.Name)
	}
	return nil
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.fn = fn
	c.scopes = []map[string]*Symbol{{}}
	c.frameSize = 0
	c.loopDepth = 0
	if len(fn.Params) > 6 {
		return errf(fn.Pos, "function %q has %d parameters; at most 6 are supported",
			fn.Name, len(fn.Params))
	}
	nInt, nFlt := 0, 0
	for i, prm := range fn.Params {
		if prm.Type.IsVoid() || prm.Type.IsArray() {
			return errf(prm.Pos, "parameter %q has invalid type %s", prm.Name, prm.Type)
		}
		if prm.Type.IsFloat() {
			nFlt++
		} else {
			nInt++
		}
		sym, err := c.declare(prm, i)
		if err != nil {
			return err
		}
		_ = sym
	}
	fn.NIntParams, fn.NFltParams = nInt, nFlt
	if err := c.checkBlock(fn.Body); err != nil {
		return err
	}
	fn.FrameSize = c.frameSize
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(d *VarDecl, paramIdx int) (*Symbol, error) {
	top := c.scopes[len(c.scopes)-1]
	if top[d.Name] != nil {
		return nil, errf(d.Pos, "duplicate declaration of %q", d.Name)
	}
	if d.Type.IsVoid() {
		return nil, errf(d.Pos, "variable %q has void type", d.Name)
	}
	size := int64(1)
	if d.Type.IsArray() {
		size = d.Type.ArrayLen
	}
	sym := &Symbol{
		Name:     d.Name,
		Type:     d.Type,
		FrameOff: c.frameSize,
		ParamIdx: paramIdx,
	}
	c.frameSize += size
	top[d.Name] = sym
	d.Sym = sym
	return sym, nil
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s := c.scopes[i][name]; s != nil {
			return s
		}
	}
	return c.globals[name]
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st)
	case *DeclStmt:
		d := st.Decl
		if d.Init != nil {
			if d.Type.IsArray() {
				return errf(d.Pos, "array %q cannot have an initializer", d.Name)
			}
			if err := c.checkExpr(d.Init); err != nil {
				return err
			}
			if err := assignable(d.Pos, d.Type, d.Init.Type()); err != nil {
				return err
			}
		}
		_, err := c.declare(d, -1)
		return err
	case *IfStmt:
		if err := c.checkCond(st.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkCond(st.Cond); err != nil {
			return err
		}
		c.loopDepth++
		err := c.checkStmt(st.Body)
		c.loopDepth--
		return err
	case *DoStmt:
		c.loopDepth++
		err := c.checkStmt(st.Body)
		c.loopDepth--
		if err != nil {
			return err
		}
		return c.checkCond(st.Cond)
	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.checkCond(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		err := c.checkStmt(st.Body)
		c.loopDepth--
		return err
	case *ReturnStmt:
		if st.Value == nil {
			if !c.fn.Ret.IsVoid() {
				return errf(st.Pos, "function %q must return %s", c.fn.Name, c.fn.Ret)
			}
			return nil
		}
		if c.fn.Ret.IsVoid() {
			return errf(st.Pos, "void function %q returns a value", c.fn.Name)
		}
		if err := c.checkExpr(st.Value); err != nil {
			return err
		}
		return assignable(st.Pos, c.fn.Ret, st.Value.Type())
	case *BreakStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos, "continue outside loop")
		}
		return nil
	case *ExprStmt:
		return c.checkExpr(st.X)
	case *AssignStmt:
		if err := c.checkExpr(st.Target); err != nil {
			return err
		}
		if !isLvalue(st.Target) {
			return errf(st.Pos, "left side of assignment is not assignable")
		}
		if st.Target.Type().IsArray() {
			return errf(st.Pos, "cannot assign to an array")
		}
		if err := c.checkExpr(st.Value); err != nil {
			return err
		}
		return assignable(st.Pos, st.Target.Type(), st.Value.Type())
	case *EmptyStmt:
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

// checkCond checks a branch condition: it must be scalar int (comparisons
// and logical operators produce int).
func (c *checker) checkCond(e Expr) error {
	if err := c.checkExpr(e); err != nil {
		return err
	}
	if !e.Type().IsInt() {
		return errf(e.ExprPos(), "condition must be int, got %s (compare pointers with == null)", e.Type())
	}
	return nil
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return !x.Type().IsArray()
	case *UnExpr:
		return x.Op == OpDeref
	case *IndexExpr:
		return true
	}
	return false
}

// assignable checks whether a value of type src can be stored into dst.
func assignable(pos Pos, dst, src Type) error {
	if dst.IsArray() {
		return errf(pos, "cannot assign to array type %s", dst)
	}
	if src.Base == BaseNull && dst.IsPointer() {
		return nil
	}
	if dst.Equal(src) {
		return nil
	}
	return errf(pos, "cannot assign %s to %s", src, dst)
}

func (c *checker) checkExpr(e Expr) error {
	switch x := e.(type) {
	case *IntLit:
		x.SetType(TypeInt)
	case *FloatLit:
		x.SetType(TypeFloat)
	case *NullLit:
		x.SetType(TypeNull)
	case *Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			return errf(x.Pos, "undefined: %q", x.Name)
		}
		x.Sym = sym
		x.SetType(sym.Type)
	case *BinExpr:
		return c.checkBin(x)
	case *UnExpr:
		return c.checkUn(x)
	case *IndexExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Idx); err != nil {
			return err
		}
		t := x.X.Type()
		if !t.IsArray() && t.PtrDepth == 0 {
			return errf(x.Pos, "cannot index %s", t)
		}
		if !x.Idx.Type().IsInt() {
			return errf(x.Pos, "index must be int, got %s", x.Idx.Type())
		}
		x.SetType(t.Elem())
	case *CallExpr:
		return c.checkCall(x)
	case *CastExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := castable(x.Pos, x.To, x.X.Type()); err != nil {
			return err
		}
		x.SetType(x.To)
	default:
		return fmt.Errorf("minic: unknown expression %T", e)
	}
	return nil
}

// castable checks an explicit conversion: between int and float, between any
// two pointer types, and between int and pointers (for address arithmetic in
// allocator-style code).
func castable(pos Pos, to, from Type) error {
	if to.IsVoid() {
		return errf(pos, "cannot cast to void")
	}
	if to.IsArray() {
		return errf(pos, "cannot cast to array type")
	}
	fromD := from.Decay()
	numOrPtr := func(t Type) bool { return t.IsNumeric() || t.IsPointer() }
	if !numOrPtr(to) || !numOrPtr(fromD) {
		return errf(pos, "cannot cast %s to %s", from, to)
	}
	if to.IsFloat() && fromD.IsPointer() || fromD.IsFloat() && to.IsPointer() {
		return errf(pos, "cannot cast between float and pointer")
	}
	return nil
}

func (c *checker) checkBin(x *BinExpr) error {
	if err := c.checkExpr(x.L); err != nil {
		return err
	}
	if err := c.checkExpr(x.R); err != nil {
		return err
	}
	lt, rt := x.L.Type().Decay(), x.R.Type().Decay()
	switch x.Op {
	case OpAnd, OpOr:
		if !lt.IsInt() || !rt.IsInt() {
			return errf(x.Pos, "operands of %s must be int, got %s and %s", x.Op, lt, rt)
		}
		x.SetType(TypeInt)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		switch {
		case lt.IsInt() && rt.IsInt(), lt.IsFloat() && rt.IsFloat():
		case lt.IsPointer() && rt.Base == BaseNull, rt.IsPointer() && lt.Base == BaseNull:
			if x.Op != OpEq && x.Op != OpNe {
				return errf(x.Pos, "pointers can be compared with null only via == or !=")
			}
		case lt.IsPointer() && rt.IsPointer() && lt.Equal(rt):
		default:
			return errf(x.Pos, "cannot compare %s with %s", lt, rt)
		}
		x.SetType(TypeInt)
	case OpAdd, OpSub:
		switch {
		case lt.IsInt() && rt.IsInt():
			x.SetType(TypeInt)
		case lt.IsFloat() && rt.IsFloat():
			x.SetType(TypeFloat)
		case lt.IsPointer() && lt.Base != BaseNull && rt.IsInt():
			x.SetType(lt)
		case x.Op == OpAdd && lt.IsInt() && rt.IsPointer() && rt.Base != BaseNull:
			x.SetType(rt)
		case x.Op == OpSub && lt.IsPointer() && rt.IsPointer() && lt.Equal(rt):
			x.SetType(TypeInt) // pointer difference in words
		default:
			return errf(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
	case OpMul, OpDiv:
		switch {
		case lt.IsInt() && rt.IsInt():
			x.SetType(TypeInt)
		case lt.IsFloat() && rt.IsFloat():
			x.SetType(TypeFloat)
		default:
			return errf(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
	case OpRem:
		if !lt.IsInt() || !rt.IsInt() {
			return errf(x.Pos, "operands of %% must be int, got %s and %s", lt, rt)
		}
		x.SetType(TypeInt)
	default:
		return errf(x.Pos, "unknown binary operator")
	}
	return nil
}

func (c *checker) checkUn(x *UnExpr) error {
	if err := c.checkExpr(x.X); err != nil {
		return err
	}
	t := x.X.Type()
	switch x.Op {
	case OpNeg:
		if !t.IsNumeric() {
			return errf(x.Pos, "cannot negate %s", t)
		}
		x.SetType(t)
	case OpNot:
		if !t.IsInt() {
			return errf(x.Pos, "operand of ! must be int, got %s", t)
		}
		x.SetType(TypeInt)
	case OpDeref:
		td := t.Decay()
		if !td.IsPointer() || td.Base == BaseNull {
			return errf(x.Pos, "cannot dereference %s", t)
		}
		x.SetType(td.Elem())
	case OpAddr:
		if !isLvalue(x.X) && !x.X.Type().IsArray() {
			return errf(x.Pos, "cannot take the address of this expression")
		}
		base := t
		if t.IsArray() {
			x.SetType(t.Decay())
			return nil
		}
		x.SetType(Type{Base: base.Base, PtrDepth: base.PtrDepth + 1})
	}
	return nil
}

func isBuiltinName(name string) BuiltinKind {
	switch name {
	case "__alloc":
		return BuiltinAlloc
	case "__input":
		return BuiltinInput
	case "__print":
		return BuiltinPrint
	case "__printf":
		return BuiltinPrintF
	case "__rand":
		return BuiltinRand
	}
	return BuiltinNone
}

func (c *checker) checkCall(x *CallExpr) error {
	for _, a := range x.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
	}
	if b := isBuiltinName(x.Name); b != BuiltinNone {
		x.Builtin = b
		return c.checkBuiltin(x)
	}
	fn := c.funcs[x.Name]
	if fn == nil {
		return errf(x.Pos, "call to undefined function %q", x.Name)
	}
	x.Decl = fn
	if len(x.Args) != len(fn.Params) {
		return errf(x.Pos, "%q takes %d arguments, got %d", x.Name, len(fn.Params), len(x.Args))
	}
	for i, a := range x.Args {
		if err := assignable(a.ExprPos(), fn.Params[i].Type, a.Type()); err != nil {
			return errf(a.ExprPos(), "argument %d of %q: %v", i+1, x.Name, err)
		}
	}
	x.SetType(fn.Ret)
	return nil
}

func (c *checker) checkBuiltin(x *CallExpr) error {
	want := func(n int) error {
		if len(x.Args) != n {
			return errf(x.Pos, "%s takes %d argument(s), got %d", x.Name, n, len(x.Args))
		}
		return nil
	}
	argInt := func(i int) error {
		if !x.Args[i].Type().Decay().IsInt() {
			return errf(x.Args[i].ExprPos(), "%s: argument %d must be int", x.Name, i+1)
		}
		return nil
	}
	switch x.Builtin {
	case BuiltinAlloc:
		if err := want(1); err != nil {
			return err
		}
		if err := argInt(0); err != nil {
			return err
		}
		x.SetType(TypeIntPtr)
	case BuiltinInput:
		if err := want(1); err != nil {
			return err
		}
		if err := argInt(0); err != nil {
			return err
		}
		x.SetType(TypeInt)
	case BuiltinPrint:
		if err := want(1); err != nil {
			return err
		}
		t := x.Args[0].Type().Decay()
		if !t.IsInt() && !t.IsPointer() {
			return errf(x.Pos, "__print takes an int (or pointer)")
		}
		x.SetType(TypeVoid)
	case BuiltinPrintF:
		if err := want(1); err != nil {
			return err
		}
		if !x.Args[0].Type().IsFloat() {
			return errf(x.Pos, "__printf takes a float")
		}
		x.SetType(TypeVoid)
	case BuiltinRand:
		if err := want(0); err != nil {
			return err
		}
		x.SetType(TypeInt)
	}
	return nil
}
