package ir

import (
	"fmt"
)

// Verify checks structural invariants of the program:
//
//   - block IDs are unique within each function and branch targets resolve;
//   - terminators appear only as the last instruction of a block;
//   - the last block of a function does not fall off the end;
//   - calls name functions that exist; LDA names globals that exist;
//   - register operands are within the register file;
//   - float/int register classes match the opcode where the ISA requires it.
//
// A program marked with a library image (Program.Image) checks only its own
// functions against the whole program's names: the copies of the image's
// functions were checked when the image was built, and names only added
// since cannot make a check fail.
//
// It returns the first violation found, or nil.
func (p *Program) Verify() error {
	v := verifier{
		funcs:   make(map[string]bool, len(p.Funcs)),
		globals: make(map[string]bool, len(p.Globals)),
	}
	for _, f := range p.Funcs {
		v.funcs[f.Name] = true
	}
	for _, g := range p.Globals {
		v.globals[g.Name] = true
	}
	for _, f := range p.Own() {
		if err := v.verifyFunc(f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	if !v.funcs["main"] {
		return fmt.Errorf("program %s: no main function", p.Name)
	}
	return nil
}

// verifier holds the program's function and global names, collected once
// per Verify so that checking a call or an LDA is a set lookup.
type verifier struct {
	funcs   map[string]bool
	globals map[string]bool
}

func (v *verifier) verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	layout := f.Layout()
	for i, b := range f.Blocks {
		if layout.Index(b.ID) != i {
			return fmt.Errorf("duplicate block id b%d", b.ID)
		}
	}
	for li, b := range f.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Op.IsTerminator() && i != len(b.Insns)-1 {
				return fmt.Errorf("b%d: terminator %s not at end of block", b.ID, in.String())
			}
			if err := v.verifyInstr(in); err != nil {
				return fmt.Errorf("b%d: %s: %w", b.ID, in.String(), err)
			}
		}
		t := b.Terminator()
		if t == nil {
			if li == len(f.Blocks)-1 {
				return fmt.Errorf("b%d: last block falls off the end of the function", b.ID)
			}
			continue
		}
		// The fall-through successor is the next block, which exists; only
		// explicit targets can be missing.
		switch t.Op.Class() {
		case ClassCondBranch, ClassUncondBranch:
			if layout.Index(t.Target) < 0 {
				return fmt.Errorf("b%d: successor b%d does not exist", b.ID, t.Target)
			}
		case ClassIndirectJump:
			for _, s := range t.Targets {
				if layout.Index(s) < 0 {
					return fmt.Errorf("b%d: successor b%d does not exist", b.ID, s)
				}
			}
		}
	}
	return nil
}

func (v *verifier) verifyInstr(in *Instr) error {
	if !in.Op.valid() {
		return fmt.Errorf("invalid opcode")
	}
	var buf [3]Reg
	for _, r := range in.AppendUses(buf[:0]) {
		if int(r) >= NumRegs {
			return fmt.Errorf("register %d out of range", r)
		}
	}
	if d, ok := in.Def(); ok {
		if int(d) >= NumRegs {
			return fmt.Errorf("destination register %d out of range", d)
		}
		if d.IsZero() {
			// Writing the zero register is legal (discard) but suspicious in
			// generated code; permit it for hand-written tests.
			_ = d
		}
		wantFloat := in.Op.IsFloat()
		// Loads/converts define the class named by the opcode; moves carry
		// their class too.
		if d.IsFloat() != wantFloat {
			return fmt.Errorf("destination %s has wrong register class for %s", d, in.Op)
		}
	}
	switch in.Op.Class() {
	case ClassCondBranch:
		if in.Op.IsFloat() != in.A.IsFloat() {
			return fmt.Errorf("branch tests %s with wrong register class", in.A)
		}
	case ClassCall:
		if !v.funcs[in.Sym] {
			return fmt.Errorf("call to undefined function %q", in.Sym)
		}
	case ClassConst:
		if in.Op == OpLda && !v.globals[in.Sym] {
			return fmt.Errorf("lda of undefined global %q", in.Sym)
		}
	case ClassRuntime:
		if in.Imm < 0 || in.Imm >= numRuntime {
			return fmt.Errorf("unknown runtime intrinsic %d", in.Imm)
		}
	}
	return nil
}
