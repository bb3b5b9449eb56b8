package codegen

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Compile lowers a parsed (but not yet checked) MinC program to IR for the
// given target. The input AST is cloned, so one parse may be compiled under
// many targets. lang tags every generated function with the source language
// (feature 7 of the paper's static feature set).
func Compile(src *minic.Program, lang ir.Language, tgt Target) (*ir.Program, error) {
	return CompileBounded(src, lang, tgt, guard.Limits{})
}

// CompileBounded is Compile under resource budgets: when lim.CFGBlocks is
// set, any generated function whose control-flow graph exceeds that many
// basic blocks aborts the compilation with an error wrapping
// guard.ErrBudgetExceeded. Serving stacks use it so a hostile submission
// cannot balloon a worker's memory; the reproduction pipeline keeps the
// unlimited Compile.
func CompileBounded(src *minic.Program, lang ir.Language, tgt Target, lim guard.Limits) (*ir.Program, error) {
	return compile(src, lang, tgt, lim, nil, nil)
}

// compile is the shared lowering path behind Compile, CompileBounded, and
// CompilePlanned. plan gates the speculative transformations; meta, when
// non-nil, receives the branch-origin side table.
func compile(src *minic.Program, lang ir.Language, tgt Target, lim guard.Limits, plan *Plan, meta *Meta) (*ir.Program, error) {
	prog := minic.CloneProgram(src)
	unrollProgram(prog, tgt, plan.unrollFilter())
	if err := minic.Check(prog); err != nil {
		return nil, fmt.Errorf("codegen: %s: %w", prog.Name, err)
	}
	return lower(prog, nil, lang, tgt, lim, plan, meta)
}

// unrollProgram applies the target's loop unrolling to every function body.
func unrollProgram(prog *minic.Program, tgt Target, allow func(minic.Pos) bool) {
	if tgt.UnrollLoops <= 1 {
		return
	}
	for _, fn := range prog.Funcs {
		fn.Body = unrollBlock(fn.Body, tgt.UnrollLoops, allow).(*minic.BlockStmt)
	}
}

// totalLowered counts the programs lowered to IR process-wide. The
// generated-corpus tests use it to prove that a warm analysis compiles
// nothing.
var totalLowered atomic.Int64

// TotalCompiles returns the number of programs this process has lowered to
// IR: every compile, linked or not, and every runtime-library image.
func TotalCompiles() int64 { return totalLowered.Load() }

// lower emits IR for a checked program. A non-nil lib is a library image
// lowered for the same language and target; its globals follow the
// program's own, and its functions follow the program's own, which is the
// order a compile of the concatenated source produces. The program shares
// the image's functions and its globals' Init arrays and is marked with the
// image.
func lower(prog *minic.Program, lib *libImage, lang ir.Language, tgt Target, lim guard.Limits, plan *Plan, meta *Meta) (*ir.Program, error) {
	totalLowered.Add(1)
	out := &ir.Program{Name: prog.Name}
	for _, g := range prog.Globals {
		out.Globals = append(out.Globals, lowerGlobal(g))
	}
	if lib != nil {
		out.Globals = append(out.Globals, lib.ir.Globals...)
	}
	if tgt.RegSaveStores {
		// The register save area the MIPS-style calling convention spills
		// through (one word per saved register is enough for the corpus).
		out.Globals = append(out.Globals, ir.Global{Name: regSaveGlobal, Size: 4})
	}
	for _, fn := range prog.Funcs {
		g := &generator{tgt: tgt, lang: lang, plan: plan, meta: meta}
		irFn, err := g.lowerFunc(fn)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s.%s: %w", prog.Name, fn.Name, err)
		}
		if lim.CFGBlocks > 0 && len(irFn.Blocks) > lim.CFGBlocks {
			return nil, fmt.Errorf("codegen: %s.%s: CFG has %d blocks, limit %d: %w",
				prog.Name, fn.Name, len(irFn.Blocks), lim.CFGBlocks, guard.ErrBudgetExceeded)
		}
		out.Funcs = append(out.Funcs, irFn)
	}
	if lib != nil {
		out.Funcs = append(out.Funcs, lib.ir.Funcs...)
		out.Image = lib.ir
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("codegen: generated invalid IR: %w", err)
	}
	return out, nil
}

// regSaveGlobal names the register save area emitted for targets with the
// MIPS-style RegSaveStores convention. MinC identifiers cannot start with a
// digit-prefixed dot, so the name cannot collide with program globals.
const regSaveGlobal = ".regsave"

func lowerGlobal(g *minic.VarDecl) ir.Global {
	size := int64(1)
	if g.Type.IsArray() {
		size = g.Type.ArrayLen
	}
	out := ir.Global{Name: g.Name, Size: size, Float: g.Type.IsFloat()}
	switch init := g.Init.(type) {
	case *minic.IntLit:
		out.Init = []int64{init.Value}
	case *minic.FloatLit:
		out.Init = []int64{int64(math.Float64bits(init.Value))}
	}
	return out
}

// generator lowers one function.
type generator struct {
	tgt  Target
	lang ir.Language
	plan *Plan
	meta *Meta

	// origin is the source statement whose lowering is emitting branches
	// right now; noteBranch stamps it onto every conditional branch site.
	origin BranchOrigin

	fb      *ir.FuncBuilder
	fn      *minic.FuncDecl
	intPool *regPool
	fltPool *regPool

	// frameExtra counts scratch spill slots appended past the sema frame.
	frameExtra int64
	// scratchFree recycles spill slots within a statement.
	scratchFree []int64

	loops []loopCtx
}

type loopCtx struct {
	continueTo *ir.Block
	breakTo    *ir.Block
}

// regPool hands out expression-temporary registers.
type regPool struct {
	free []ir.Reg
}

func newRegPool(float bool, n int) *regPool {
	p := &regPool{}
	// Temps are R1..Rn / F1..Fn (R0/F0 are the return-value registers).
	for i := n; i >= 1; i-- {
		if float {
			p.free = append(p.free, ir.F(i))
		} else {
			p.free = append(p.free, ir.R(i))
		}
	}
	return p
}

func (p *regPool) alloc() ir.Reg {
	if len(p.free) == 0 {
		panic("codegen: temporary register pool exhausted (spill logic failed)")
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return r
}

func (p *regPool) release(r ir.Reg) { p.free = append(p.free, r) }
func (p *regPool) avail() int       { return len(p.free) }

func (g *generator) pool(float bool) *regPool {
	if float {
		return g.fltPool
	}
	return g.intPool
}

// scratchSlot returns a frame offset for a spill slot.
func (g *generator) scratchSlot() int64 {
	if n := len(g.scratchFree); n > 0 {
		s := g.scratchFree[n-1]
		g.scratchFree = g.scratchFree[:n-1]
		return s
	}
	off := g.fn.FrameSize + g.frameExtra
	g.frameExtra++
	return off
}

func (g *generator) releaseScratch(off int64) {
	g.scratchFree = append(g.scratchFree, off)
}

func (g *generator) lowerFunc(fn *minic.FuncDecl) (irFn *ir.Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			irFn = nil
			err = fmt.Errorf("%v", r)
		}
	}()
	g.fn = fn
	g.fb = ir.NewFuncBuilder(fn.Name, g.lang)
	g.intPool = newRegPool(false, g.tgt.intTemps())
	g.fltPool = newRegPool(true, g.tgt.floatTemps())

	// Spill incoming arguments to their frame slots.
	for i, prm := range fn.Params {
		var src ir.Reg
		var store ir.Op
		if prm.Type.IsFloat() {
			src = ir.Reg(int(ir.RegFA0) + i)
			store = ir.OpStt
		} else {
			src = ir.Reg(int(ir.RegA0) + i)
			store = ir.OpStq
		}
		g.fb.Emit(ir.Instr{Op: store, A: ir.RegSP, B: src, Imm: prm.Sym.FrameOff})
	}
	g.genBlock(fn.Body)
	if !g.fb.Terminated() {
		// Implicit return: R0 = 0.
		g.fb.LoadInt(ir.RegV0, 0)
		g.fb.Ret()
	}
	out := g.fb.Func()
	out.NIntArgs = fn.NIntParams
	out.NFltArgs = fn.NFltParams
	out.FrameSize = fn.FrameSize + g.frameExtra
	return out, nil
}

// --- Statements -------------------------------------------------------------

func (g *generator) genBlock(b *minic.BlockStmt) {
	for _, s := range b.Stmts {
		g.genStmt(s)
	}
}

func (g *generator) genStmt(s minic.Stmt) {
	if pos, ok := stmtPos(s); ok {
		g.origin = BranchOrigin{Pos: pos}
	}
	switch st := s.(type) {
	case *minic.BlockStmt:
		g.genBlock(st)
	case *minic.EmptyStmt:
	case *minic.DeclStmt:
		if st.Decl.Init != nil {
			v := g.genExpr(st.Decl.Init)
			g.storeLocal(st.Decl.Sym, v)
			g.freeVal(v)
		}
	case *minic.AssignStmt:
		g.genAssign(st)
	case *minic.ExprStmt:
		v := g.genExprVoid(st.X)
		g.freeVal(v)
	case *minic.IfStmt:
		g.genIf(st)
	case *minic.WhileStmt:
		g.genWhile(st)
	case *minic.DoStmt:
		g.genDo(st)
	case *minic.ForStmt:
		g.genFor(st)
	case *minic.ReturnStmt:
		g.genReturn(st)
	case *minic.BreakStmt:
		ctx := g.loops[len(g.loops)-1]
		g.fb.Jump(ctx.breakTo)
		g.startDeadBlock()
	case *minic.ContinueStmt:
		ctx := g.loops[len(g.loops)-1]
		g.fb.Jump(ctx.continueTo)
		g.startDeadBlock()
	default:
		panic(fmt.Sprintf("codegen: unknown statement %T", s))
	}
}

// startDeadBlock begins a fresh block for any (unreachable) code following a
// jump or return in the middle of a statement list.
func (g *generator) startDeadBlock() {
	nb := g.fb.NewBlock()
	g.fb.SetBlock(nb)
}

func (g *generator) genReturn(st *minic.ReturnStmt) {
	if st.Value != nil {
		v := g.genExpr(st.Value)
		r := g.valReg(v)
		if st.Value.Type().IsFloat() {
			g.fb.Emit(ir.Instr{Op: ir.OpFMov, Dst: ir.RegFV0, A: r})
		} else {
			g.fb.Emit(ir.Instr{Op: ir.OpMov, Dst: ir.RegV0, A: r})
		}
		g.freeVal(v)
	} else {
		g.fb.LoadInt(ir.RegV0, 0)
	}
	g.fb.Ret()
	g.startDeadBlock()
}

func (g *generator) genAssign(st *minic.AssignStmt) {
	v := g.genExpr(st.Value)
	g.genStoreTo(st.Target, v)
	g.freeVal(v)
}

// genStoreTo stores the value into the lvalue target.
func (g *generator) genStoreTo(target minic.Expr, v value) {
	isFloat := target.Type().IsFloat()
	store := ir.OpStq
	if isFloat {
		store = ir.OpStt
	}
	switch t := target.(type) {
	case *minic.Ident:
		sym := t.Sym
		if sym.Global {
			addr := g.intPool.alloc()
			g.fb.Lda(addr, sym.Name, 0)
			g.fb.Emit(ir.Instr{Op: store, A: addr, B: g.valReg(v)})
			g.intPool.release(addr)
			return
		}
		g.fb.Emit(ir.Instr{Op: store, A: ir.RegSP, B: g.valReg(v), Imm: sym.FrameOff})
	default:
		av := g.genAddr(target)
		g.fb.Emit(ir.Instr{Op: store, A: g.valReg(av), B: g.valReg(v)})
		g.freeVal(av)
	}
}

func (g *generator) storeLocal(sym *minic.Symbol, v value) {
	store := ir.OpStq
	if sym.Type.IsFloat() {
		store = ir.OpStt
	}
	g.fb.Emit(ir.Instr{Op: store, A: ir.RegSP, B: g.valReg(v), Imm: sym.FrameOff})
}

func (g *generator) genIf(st *minic.IfStmt) {
	if g.tgt.UseCmov && g.plan.cmovOK(st.Pos) && g.tryCmovIf(st) {
		return
	}
	if st.Else == nil {
		join := g.fb.NewBlockDetached()
		g.genCondBranch(st.Cond, join, false)
		g.genStmt(st.Then)
		if !g.fb.Terminated() {
			// Fall through into the join block placed next.
			g.fb.Place(join)
			g.fb.SetBlock(join)
			return
		}
		g.fb.Place(join)
		g.fb.SetBlock(join)
		return
	}
	elseB := g.fb.NewBlockDetached()
	join := g.fb.NewBlockDetached()
	g.genCondBranch(st.Cond, elseB, false)
	g.genStmt(st.Then)
	if !g.fb.Terminated() {
		g.fb.Jump(join)
	}
	g.fb.Place(elseB)
	g.fb.SetBlock(elseB)
	g.genStmt(st.Else)
	g.fb.Place(join)
	g.fb.SetBlock(join)
}

// genWhile emits an inverted (guard + bottom-test) loop, the layout -O
// compilers produce: an entry guard skips the loop when the condition is
// initially false, and the loop-iteration conditional branch at the bottom
// is a backward taken branch whose target dominates it — a true back edge,
// so loop branches are dynamically mostly taken, the behaviour BTFNT and
// the Loop heuristics depend on. Conditions with side effects (calls)
// cannot be evaluated twice, so they fall back to a single shared test
// reached by an unconditional jump.
func (g *generator) genWhile(st *minic.WhileStmt) {
	test := g.fb.NewBlockDetached()
	exit := g.fb.NewBlockDetached()
	if exprPure(st.Cond) && !g.tgt.NoLoopInversion {
		// Entry guard: skip the loop when the condition is false.
		g.genCondBranch(st.Cond, exit, false)
	} else {
		g.fb.Jump(test)
	}
	body := g.fb.NewBlock()
	g.fb.SetBlock(body)
	g.loops = append(g.loops, loopCtx{continueTo: test, breakTo: exit})
	g.genStmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	// Fall through (or be jumped to) into the bottom test.
	g.fb.Place(test)
	g.fb.SetBlock(test)
	g.origin = BranchOrigin{Pos: st.Pos, Loop: true}
	g.genCondBranch(st.Cond, body, true)
	g.fb.Place(exit)
	g.fb.SetBlock(exit)
}

func (g *generator) genDo(st *minic.DoStmt) {
	test := g.fb.NewBlockDetached()
	exit := g.fb.NewBlockDetached()
	body := g.fb.NewBlock()
	g.fb.SetBlock(body)
	g.loops = append(g.loops, loopCtx{continueTo: test, breakTo: exit})
	g.genStmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.fb.Place(test)
	g.fb.SetBlock(test)
	g.origin = BranchOrigin{Pos: st.Pos, Loop: true}
	g.genCondBranch(st.Cond, body, true)
	g.fb.Place(exit)
	g.fb.SetBlock(exit)
}

func (g *generator) genFor(st *minic.ForStmt) {
	if st.Init != nil {
		g.genStmt(st.Init)
	}
	test := g.fb.NewBlockDetached()
	post := g.fb.NewBlockDetached()
	exit := g.fb.NewBlockDetached()
	switch {
	case st.Cond == nil:
		// No test: fall straight into the body.
	case exprPure(st.Cond) && !g.tgt.NoLoopInversion:
		g.genCondBranch(st.Cond, exit, false) // inverted loop: entry guard
	default:
		g.fb.Jump(test)
	}
	body := g.fb.NewBlock()
	g.fb.SetBlock(body)
	g.loops = append(g.loops, loopCtx{continueTo: post, breakTo: exit})
	g.genStmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.fb.Place(post)
	g.fb.SetBlock(post)
	if st.Post != nil {
		g.genStmt(st.Post)
	}
	g.fb.Place(test)
	g.fb.SetBlock(test)
	if st.Cond == nil {
		g.fb.Jump(body)
	} else {
		g.origin = BranchOrigin{Pos: st.Pos, Loop: true}
		g.genCondBranch(st.Cond, body, true)
	}
	g.fb.Place(exit)
	g.fb.SetBlock(exit)
}

// exprPure reports whether evaluating the expression twice is safe and
// observationally identical (no calls anywhere inside) — the condition for
// loop inversion to duplicate the loop test.
func exprPure(e minic.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *minic.IntLit, *minic.FloatLit, *minic.NullLit, *minic.Ident:
		return true
	case *minic.BinExpr:
		return exprPure(x.L) && exprPure(x.R)
	case *minic.UnExpr:
		return exprPure(x.X)
	case *minic.IndexExpr:
		return exprPure(x.X) && exprPure(x.Idx)
	case *minic.CastExpr:
		return exprPure(x.X)
	default:
		return false
	}
}
