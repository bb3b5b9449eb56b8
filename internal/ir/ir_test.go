package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisters(t *testing.T) {
	if R(5).IsFloat() {
		t.Error("R(5) must be an integer register")
	}
	if !F(5).IsFloat() {
		t.Error("F(5) must be a float register")
	}
	if got := R(5).String(); got != "R5" {
		t.Errorf("R(5).String() = %q", got)
	}
	if got := F(31).String(); got != "F31" {
		t.Errorf("F(31).String() = %q", got)
	}
	if !RegZero.IsZero() || !RegFZero.IsZero() {
		t.Error("zero registers not recognized")
	}
	if RegSP.IsZero() {
		t.Error("SP is not a zero register")
	}
}

func TestRegisterConstructorPanics(t *testing.T) {
	for _, bad := range []int{-1, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("R(%d) did not panic", bad)
				}
			}()
			R(bad)
		}()
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op         Op
		cond       bool
		term       bool
		call       bool
		store      bool
		load       bool
		cmp        bool
		floatClass bool
	}{
		{OpAddQ, false, false, false, false, false, false, false},
		{OpBne, true, true, false, false, false, false, false},
		{OpFbeq, true, true, false, false, false, false, true},
		{OpBr, false, true, false, false, false, false, false},
		{OpRet, false, true, false, false, false, false, false},
		{OpBsr, false, false, true, false, false, false, false},
		{OpJsr, false, false, true, false, false, false, false},
		{OpStq, false, false, false, true, false, false, false},
		{OpLdt, false, false, false, false, true, false, true},
		{OpCmpLt, false, false, false, false, false, true, false},
		{OpCmpTEq, false, false, false, false, false, true, true},
		{OpBeq2, true, true, false, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsCondBranch() != c.cond {
			t.Errorf("%v.IsCondBranch() = %v", c.op, !c.cond)
		}
		if c.op.IsTerminator() != c.term {
			t.Errorf("%v.IsTerminator() = %v", c.op, !c.term)
		}
		if c.op.IsCall() != c.call {
			t.Errorf("%v.IsCall() = %v", c.op, !c.call)
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v.IsStore() = %v", c.op, !c.store)
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%v.IsLoad() = %v", c.op, !c.load)
		}
		if c.op.IsCompare() != c.cmp {
			t.Errorf("%v.IsCompare() = %v", c.op, !c.cmp)
		}
		if c.op.IsFloat() != c.floatClass {
			t.Errorf("%v.IsFloat() = %v", c.op, !c.floatClass)
		}
	}
}

func TestBranchNegateInvolution(t *testing.T) {
	branches := []Op{OpBeq, OpBne, OpBlt, OpBle, OpBgt, OpBge,
		OpFbeq, OpFbne, OpFblt, OpFble, OpFbgt, OpFbge, OpBeq2, OpBne2}
	for _, op := range branches {
		n := op.BranchNegate()
		if n == op {
			t.Errorf("%v negates to itself", op)
		}
		if n.BranchNegate() != op {
			t.Errorf("BranchNegate not an involution for %v", op)
		}
	}
}

func TestBranchNegatePanicsOnNonBranch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BranchNegate(OpAddQ) did not panic")
		}
	}()
	OpAddQ.BranchNegate()
}

func TestAllOpsHaveNames(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", int(op))
		}
		if op.Class() == ClassInvalid {
			t.Errorf("opcode %v has no class", op)
		}
	}
}

func TestUsesAndDef(t *testing.T) {
	add := Instr{Op: OpAddQ, Dst: R(1), A: R(2), B: R(3)}
	if d, ok := add.Def(); !ok || d != R(1) {
		t.Errorf("add def = %v, %v", d, ok)
	}
	if got := add.AppendUses(nil); len(got) != 2 || got[0] != R(2) || got[1] != R(3) {
		t.Errorf("add uses = %v", got)
	}
	addImm := Instr{Op: OpAddQ, Dst: R(1), A: R(2), Imm: 5, UseImm: true}
	if got := addImm.AppendUses(nil); len(got) != 1 || got[0] != R(2) {
		t.Errorf("addImm uses = %v", got)
	}
	st := Instr{Op: OpStq, A: R(4), B: R(5), Imm: 2}
	if _, ok := st.Def(); ok {
		t.Error("store must not define a register")
	}
	if got := st.AppendUses(nil); len(got) != 2 {
		t.Errorf("store uses = %v", got)
	}
	br := Instr{Op: OpBne, A: R(6), Target: 1}
	if got := br.AppendUses(nil); len(got) != 1 || got[0] != R(6) {
		t.Errorf("branch uses = %v", got)
	}
	br2 := Instr{Op: OpBeq2, A: R(6), B: R(7), Target: 1}
	if got := br2.AppendUses(nil); len(got) != 2 {
		t.Errorf("two-register branch uses = %v", got)
	}
	cmov := Instr{Op: OpCmovNe, Dst: R(1), A: R(2), B: R(3)}
	if got := cmov.AppendUses(nil); len(got) != 3 {
		t.Errorf("cmov must read its destination too, uses = %v", got)
	}
}

// buildDiamond constructs the classic if-then-else diamond used by several
// tests: b0 -> {b1 taken, b2 fall} -> b3 -> ret.
func buildDiamond(t *testing.T) *Func {
	t.Helper()
	fb := NewFuncBuilder("diamond", LangC)
	b0 := fb.Block()
	b1 := fb.NewBlockDetached()
	b2 := fb.NewBlockDetached()
	b3 := fb.NewBlockDetached()
	fb.LoadInt(R(1), 1)
	fb.Branch(OpBne, R(1), b1)
	fb.Place(b2)
	fb.SetBlock(b2)
	fb.LoadInt(R(2), 2)
	fb.Jump(b3)
	fb.Place(b1)
	fb.SetBlock(b1)
	fb.LoadInt(R(2), 3)
	fb.Place(b3)
	fb.SetBlock(b3)
	fb.Ret()
	_ = b0
	return fb.Func()
}

func TestFuncSuccessors(t *testing.T) {
	fn := buildDiamond(t)
	// b0 branches to b1 (taken) and falls through to b2 (next placed).
	succs := fn.Succs(fn.Blocks[0])
	if len(succs) != 2 || succs[0] != 1 || succs[1] != 2 {
		t.Fatalf("entry succs = %v, want [1 2]", succs)
	}
	// The unconditional jump block goes only to b3.
	b2 := fn.BlockByID(2)
	if got := fn.Succs(b2); len(got) != 1 || got[0] != 3 {
		t.Errorf("b2 succs = %v, want [3]", got)
	}
	// b1 falls through to b3 in layout order.
	b1 := fn.BlockByID(1)
	if got := fn.Succs(b1); len(got) != 1 || got[0] != 3 {
		t.Errorf("b1 succs = %v, want [3]", got)
	}
	// The return block has no successors.
	if got := fn.Succs(fn.BlockByID(3)); got != nil {
		t.Errorf("return block succs = %v, want nil", got)
	}
}

func TestBuilderPanics(t *testing.T) {
	fb := NewFuncBuilder("f", LangC)
	fb.Ret()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("emitting after a terminator did not panic")
			}
		}()
		fb.LoadInt(R(1), 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("placing a block twice did not panic")
			}
		}()
		b := fb.NewBlockDetached()
		fb.Place(b)
		fb.Place(b)
	}()
}

func TestVerifyCatchesErrors(t *testing.T) {
	mk := func(build func(fb *FuncBuilder)) *Program {
		fb := NewFuncBuilder("main", LangC)
		build(fb)
		return &Program{Name: "t", Funcs: []*Func{fb.Func()}}
	}
	helper := NewFuncBuilder("helper", LangC)
	helper.Ret()
	// Each error class keeps its exact text.
	cases := []struct {
		name string
		prog *Program
		want string
	}{
		{
			"bad branch target",
			mk(func(fb *FuncBuilder) {
				fb.Emit(Instr{Op: OpBne, A: R(1), Target: 99})
				nb := fb.NewBlock()
				fb.SetBlock(nb)
				fb.Ret()
			}),
			"func main: b0: successor b99 does not exist",
		},
		{
			"bad indirect-jump target",
			mk(func(fb *FuncBuilder) {
				nb := fb.NewBlock()
				fb.Emit(Instr{Op: OpJmp, A: R(1), Targets: []int{nb.ID, 77}})
				fb.SetBlock(nb)
				fb.Ret()
			}),
			"func main: b0: successor b77 does not exist",
		},
		{
			"falls off end",
			mk(func(fb *FuncBuilder) { fb.LoadInt(R(1), 1) }),
			"func main: b0: last block falls off the end of the function",
		},
		{
			"undefined callee",
			mk(func(fb *FuncBuilder) {
				fb.Call("nowhere")
				fb.Ret()
			}),
			`func main: b0: bsr nowhere: call to undefined function "nowhere"`,
		},
		{
			"undefined global",
			mk(func(fb *FuncBuilder) {
				fb.Lda(R(1), "ghost", 0)
				fb.Ret()
			}),
			`func main: b0: lda R1, ghost+0: lda of undefined global "ghost"`,
		},
		{
			"duplicate block id",
			mk(func(fb *FuncBuilder) {
				fb.Ret()
				fn := fb.Func()
				fn.Blocks = append(fn.Blocks, &Block{ID: fn.Blocks[0].ID, Insns: []Instr{{Op: OpRet}}})
			}),
			"func main: duplicate block id b0",
		},
		{
			"terminator before end of block",
			mk(func(fb *FuncBuilder) {
				fb.Ret()
				b := fb.Block()
				b.Insns = append(b.Insns, Instr{Op: OpLdiQ, Dst: R(1), Imm: 1})
			}),
			"func main: b0: terminator ret not at end of block",
		},
		{
			"no main",
			&Program{Name: "t", Funcs: []*Func{helper.Func()}},
			"program t: no main function",
		},
		{
			"wrong register class",
			mk(func(fb *FuncBuilder) {
				fb.Emit(Instr{Op: OpAddT, Dst: R(1), A: F(1), B: F(2)})
				fb.Ret()
			}),
			"func main: b0: addt R1, F1, F2: destination R1 has wrong register class for addt",
		},
		{
			"bad runtime intrinsic",
			mk(func(fb *FuncBuilder) {
				fb.Emit(Instr{Op: OpRtcall, Imm: 999})
				fb.Ret()
			}),
			"func main: b0: rtcall #999: unknown runtime intrinsic 999",
		},
	}
	for _, c := range cases {
		err := c.prog.Verify()
		if err == nil {
			t.Errorf("%s: Verify accepted invalid IR", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func TestVerifyRequiresMain(t *testing.T) {
	fb := NewFuncBuilder("helper", LangC)
	fb.Ret()
	p := &Program{Name: "t", Funcs: []*Func{fb.Func()}}
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Errorf("Verify = %v, want missing-main error", err)
	}
}

// TestVerifyMarkedProgram: a program marked with a library image checks
// its own functions, against names that include the image's, and takes
// the image's copies as checked when the image was built.
func TestVerifyMarkedProgram(t *testing.T) {
	lib := NewFuncBuilder("lib_f", LangC)
	lib.Emit(Instr{Op: OpBne, A: R(1), Target: 99}) // a broken copy
	lib.SetBlock(lib.NewBlock())
	lib.Ret()
	main := NewFuncBuilder("main", LangC)
	main.Call("lib_f")
	main.Ret()
	img := &Image{ID: "img", Funcs: []*Func{lib.Func()}}
	p := &Program{Name: "t", Funcs: []*Func{main.Func(), lib.Func()}, Image: img}
	if got := p.Own(); len(got) != 1 || got[0].Name != "main" {
		t.Fatalf("Own = %v, want [main]", got)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("marked program rejected for its image's copy: %v", err)
	}
	p.Image = nil
	if err := p.Verify(); err == nil {
		t.Fatal("unmarked program with a broken function verified")
	}
	bad := NewFuncBuilder("main", LangC)
	bad.Call("nope")
	bad.Ret()
	p = &Program{Name: "t", Funcs: []*Func{bad.Func(), lib.Func()}, Image: img}
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "func main") {
		t.Fatalf("Verify = %v, want main's bad call", err)
	}
}

func TestProgramQueries(t *testing.T) {
	fn := buildDiamond(t)
	fn.Name = "main"
	p := &Program{Name: "t", Funcs: []*Func{fn},
		Globals: []Global{{Name: "g", Size: 4}}}
	if err := p.Verify(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if p.FuncByName("main") != fn || p.FuncByName("nope") != nil {
		t.Error("FuncByName misbehaves")
	}
	if p.GlobalByName("g") == nil || p.GlobalByName("h") != nil {
		t.Error("GlobalByName misbehaves")
	}
	if p.NumCondBranches() != 1 {
		t.Errorf("NumCondBranches = %d, want 1", p.NumCondBranches())
	}
	refs := p.Branches()
	if len(refs) != 1 || refs[0].Func != "main" || refs[0].Block != 0 {
		t.Errorf("Branches = %v", refs)
	}
	if got := refs[0].String(); got != "main:b0" {
		t.Errorf("BranchRef.String = %q", got)
	}
	if p.NumInsns() != fn.NumInsns() {
		t.Error("NumInsns mismatch")
	}
}

func TestDisassembleStable(t *testing.T) {
	fn := buildDiamond(t)
	a, b := fn.Disassemble(), fn.Disassemble()
	if a != b {
		t.Error("Disassemble not deterministic")
	}
	for _, want := range []string{"b0:", "bne R1, b1", "br b3", "ret"} {
		if !strings.Contains(a, want) {
			t.Errorf("disassembly missing %q:\n%s", want, a)
		}
	}
}

// TestInstrStringTotal checks that every opcode renders without panicking
// (property-style over the opcode space).
func TestInstrStringTotal(t *testing.T) {
	f := func(op uint8, dst, a, b uint8, imm int64, useImm bool) bool {
		in := Instr{
			Op:  Op(int(op) % NumOps),
			Dst: Reg(dst % NumRegs), A: Reg(a % NumRegs), B: Reg(b % NumRegs),
			Imm: imm, UseImm: useImm, Sym: "s", Target: 1,
		}
		return in.String() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
