// Package ir defines the Alpha-like intermediate representation that the
// whole reproduction is built on: the MinC code generator lowers programs to
// it, the interpreter executes it to collect branch profiles (standing in for
// ATOM instrumentation of Alpha binaries), and the CFG analyses, feature
// extraction, and branch-prediction heuristics all consume it.
package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Reg names a machine register. Values 0..31 are the integer registers
// R0..R31; values 32..63 are the floating-point registers F0..F31.
// Following Alpha conventions, R31 and F31 always read as zero.
type Reg uint8

// Register conventions (a simplified Alpha calling standard).
const (
	RegV0   Reg = 0  // integer return value
	RegA0   Reg = 16 // first integer argument (R16..R21 are A0..A5)
	RegSP   Reg = 30 // stack pointer
	RegZero Reg = 31 // integer zero register

	RegFV0   Reg = 32 + 0  // float return value (F0)
	RegFA0   Reg = 32 + 16 // first float argument (F16..F21)
	RegFZero Reg = 32 + 31 // float zero register (F31)

	// NumRegs is the total register file size (32 int + 32 float).
	NumRegs = 64
)

// R returns the i'th integer register.
func R(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("ir: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i'th floating-point register.
func F(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("ir: float register index %d out of range", i))
	}
	return Reg(32 + i)
}

// IsFloat reports whether r is a floating-point register.
func (r Reg) IsFloat() bool { return r >= 32 }

// IsZero reports whether r is a hardwired zero register.
func (r Reg) IsZero() bool { return r == RegZero || r == RegFZero }

// String returns the assembler name of the register.
func (r Reg) String() string {
	if r.IsFloat() {
		return fmt.Sprintf("F%d", int(r-32))
	}
	return fmt.Sprintf("R%d", int(r))
}

// NoReg is the canonical "no register" operand placeholder (reads as zero).
const NoReg = RegZero

// Instr is a single IR instruction. The meaning of the fields depends on the
// opcode:
//
//   - ALU/compare: Dst = A op B, or Dst = A op Imm when UseImm is set.
//   - OpLdiQ/OpLdiT: Dst = Imm (for OpLdiT, Imm holds the float's bits).
//   - OpLda: Dst = &Sym + Imm.
//   - Loads/stores: address is A + Imm; loads write Dst, stores read B.
//   - Conditional branches: test A (against zero, or against B for the
//     MIPS-style two-register forms); Target is the taken successor block ID.
//   - OpBr: Target is the successor block ID.
//   - OpJmp: A holds a block-table index; Targets lists the candidates.
//   - OpBsr: call function Sym; arguments are in A0.../FA0... by convention.
//   - OpRtcall: Imm selects the runtime intrinsic.
type Instr struct {
	Op     Op
	Dst    Reg
	A      Reg
	B      Reg
	Imm    int64
	UseImm bool
	Sym    string
	Target int
	// Targets lists candidate successor blocks for OpJmp (jump tables).
	Targets []int
}

// Uses returns the registers read by the instruction.
func (in *Instr) Uses() []Reg { return in.AppendUses(nil) }

// AppendUses appends the registers read by the instruction to dst.
func (in *Instr) AppendUses(dst []Reg) []Reg {
	switch in.Op.Class() {
	case ClassIntALU, ClassFloatALU, ClassIntCmp, ClassFloatCmp:
		if in.Op == OpFAbs || in.Op == OpFNeg || in.Op == OpCvtQT || in.Op == OpCvtTQ {
			return append(dst, in.A)
		}
		if in.UseImm {
			return append(dst, in.A)
		}
		return append(dst, in.A, in.B)
	case ClassMove:
		return append(dst, in.A)
	case ClassCmov:
		return append(dst, in.A, in.B, in.Dst)
	case ClassLoad:
		return append(dst, in.A)
	case ClassStore:
		return append(dst, in.A, in.B)
	case ClassCondBranch:
		if in.Op.IsTwoRegBranch() {
			return append(dst, in.A, in.B)
		}
		return append(dst, in.A)
	case ClassIndirectJump, ClassIndirectCall:
		return append(dst, in.A)
	}
	return dst
}

// Def returns the register written by the instruction and whether it writes
// one at all.
func (in *Instr) Def() (Reg, bool) {
	switch in.Op.Class() {
	case ClassIntALU, ClassFloatALU, ClassIntCmp, ClassFloatCmp,
		ClassConst, ClassMove, ClassCmov, ClassLoad:
		return in.Dst, true
	}
	return 0, false
}

// String renders the instruction in assembler-like syntax.
func (in *Instr) String() string {
	switch in.Op.Class() {
	case ClassIntALU, ClassFloatALU, ClassIntCmp, ClassFloatCmp:
		if in.Op == OpFAbs || in.Op == OpFNeg || in.Op == OpCvtQT || in.Op == OpCvtTQ {
			return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.A)
		}
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Dst, in.A, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.A, in.B)
	case ClassConst:
		if in.Op == OpLda {
			return fmt.Sprintf("lda %s, %s+%d", in.Dst, in.Sym, in.Imm)
		}
		return fmt.Sprintf("%s %s, #%d", in.Op, in.Dst, in.Imm)
	case ClassMove:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.A)
	case ClassCmov:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.A, in.B, in.Dst)
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Dst, in.Imm, in.A)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.B, in.Imm, in.A)
	case ClassCondBranch:
		if in.Op.IsTwoRegBranch() {
			return fmt.Sprintf("%s %s, %s, b%d", in.Op, in.A, in.B, in.Target)
		}
		return fmt.Sprintf("%s %s, b%d", in.Op, in.A, in.Target)
	case ClassUncondBranch:
		return fmt.Sprintf("br b%d", in.Target)
	case ClassIndirectJump:
		return fmt.Sprintf("jmp (%s) %v", in.A, in.Targets)
	case ClassCall:
		return fmt.Sprintf("bsr %s", in.Sym)
	case ClassIndirectCall:
		return fmt.Sprintf("jsr (%s)", in.A)
	case ClassReturn:
		return "ret"
	case ClassRuntime:
		return fmt.Sprintf("rtcall #%d", in.Imm)
	}
	return fmt.Sprintf("%s ???", in.Op)
}

// Block is a basic block: a maximal straight-line instruction sequence. A
// block may end with a terminator (branch, jump, or return); a block whose
// last instruction is not a terminator falls through to the next block in
// the function's layout order.
type Block struct {
	ID    int
	Insns []Instr
}

// Terminator returns the block's terminating instruction, or nil if the
// block falls through implicitly.
func (b *Block) Terminator() *Instr {
	if len(b.Insns) == 0 {
		return nil
	}
	last := &b.Insns[len(b.Insns)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// Branch returns the block's conditional-branch terminator, or nil.
func (b *Block) Branch() *Instr {
	t := b.Terminator()
	if t != nil && t.Op.IsCondBranch() {
		return t
	}
	return nil
}

// ContainsCall reports whether any instruction in the block is a call.
func (b *Block) ContainsCall() bool {
	for i := range b.Insns {
		if b.Insns[i].Op.IsCall() {
			return true
		}
	}
	return false
}

// Language tags the source language of a procedure, one of the static
// features in Table 2 of the paper (value "C" or "FORT"; the Scheme-style
// corpus programs use "SCHEME" for the Section 3.1.2 study).
type Language string

// Source-language values.
const (
	LangC       Language = "C"
	LangFortran Language = "FORT"
	LangScheme  Language = "SCHEME"
)

// Func is a procedure: an ordered list of basic blocks. Blocks[0] is the
// entry block and block layout order defines branch direction (a branch to
// its own block or a lower-indexed one is a backward branch).
type Func struct {
	Name      string
	Blocks    []*Block
	NIntArgs  int
	NFltArgs  int
	FrameSize int64 // stack frame size in words
	Language  Language
}

// Succs returns the successor block IDs of block b in control-flow order:
// for a conditional branch the taken successor (branch target) comes first
// and the fall-through successor second.
func (f *Func) Succs(b *Block) []int {
	t := b.Terminator()
	if t == nil {
		if next := f.layoutNext(b.ID); next >= 0 {
			return []int{next}
		}
		return nil
	}
	switch t.Op.Class() {
	case ClassCondBranch:
		succs := []int{t.Target}
		if next := f.layoutNext(b.ID); next >= 0 {
			succs = append(succs, next)
		}
		return succs
	case ClassUncondBranch:
		return []int{t.Target}
	case ClassIndirectJump:
		return append([]int(nil), t.Targets...)
	case ClassReturn:
		return nil
	}
	return nil
}

// layoutNext returns the ID of the block following block id in layout order,
// or -1 if id is the last block.
func (f *Func) layoutNext(id int) int {
	for i, b := range f.Blocks {
		if b.ID == id {
			if i+1 < len(f.Blocks) {
				return f.Blocks[i+1].ID
			}
			return -1
		}
	}
	return -1
}

// BlockByID returns the block with the given ID, or nil.
func (f *Func) BlockByID(id int) *Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// Layout maps block IDs to layout positions in constant time. Block IDs
// come from a FuncBuilder counter, so they are dense and the table holds
// about one entry per block.
type Layout struct {
	lo  int
	pos []int32 // pos[id-lo] is the layout index of block id, or -1
}

// Layout indexes the function's blocks by ID. When an ID repeats, the first
// block with it wins; Verify rejects such functions.
func (f *Func) Layout() Layout {
	if len(f.Blocks) == 0 {
		return Layout{}
	}
	lo, hi := f.Blocks[0].ID, f.Blocks[0].ID
	for _, b := range f.Blocks[1:] {
		lo = min(lo, b.ID)
		hi = max(hi, b.ID)
	}
	l := Layout{lo: lo, pos: make([]int32, hi-lo+1)}
	for i := range l.pos {
		l.pos[i] = -1
	}
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		l.pos[f.Blocks[i].ID-lo] = int32(i)
	}
	return l
}

// Index returns the layout position of block id, or -1 if there is none.
func (l Layout) Index(id int) int {
	if id < l.lo || id-l.lo >= len(l.pos) {
		return -1
	}
	return int(l.pos[id-l.lo])
}

// NumInsns returns the static instruction count of the function.
func (f *Func) NumInsns() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insns)
	}
	return n
}

// Global is a program global variable: a named region of Size words,
// optionally with initial integer values.
type Global struct {
	Name  string
	Size  int64
	Init  []int64
	Float bool
}

// Program is a complete compiled program: a set of functions (with "main" as
// the entry point) and global variables.
type Program struct {
	Name    string
	Funcs   []*Func
	Globals []Global

	// Image, when non-nil, marks a program linked against a runtime-library
	// image: its last len(Image.Funcs) functions are Image.Funcs
	// themselves, in order, and its copies of Image.Globals share their
	// Init arrays. That IR is shared by every program linked against the
	// image and is never written, so a pass that rewrites a marked
	// program's IR calls Unshare first. Analyses reuse the image's results
	// for its functions. The mark is not part of AppendCanonical.
	Image *Image
}

// Image is a runtime library compiled once for one language and target
// and linked into many programs, which share its IR. It is read-only.
type Image struct {
	// ID names the image: the hex sha256 of its canonical encoding
	// (AppendCanonical over its functions and globals), so equal IDs mean
	// equal IR.
	ID      string
	Funcs   []*Func
	Globals []Global
}

// NewImage returns the image of funcs and globals, naming it by their
// canonical encoding.
func NewImage(funcs []*Func, globals []Global) *Image {
	img := &Image{Funcs: funcs, Globals: globals}
	img.ID = img.hash()
	return img
}

// Intact reports whether the image's IR still encodes to its ID: whether
// nothing has written to it since NewImage.
func (img *Image) Intact() bool { return img.hash() == img.ID }

func (img *Image) hash() string {
	sum := sha256.Sum256(AppendCanonical(nil, &Program{Funcs: img.Funcs, Globals: img.Globals}))
	return hex.EncodeToString(sum[:])
}

// Own returns the functions of p that are not its image's: all of them
// for an unmarked program.
func (p *Program) Own() []*Func {
	if p.Image == nil {
		return p.Funcs
	}
	return p.Funcs[:len(p.Funcs)-len(p.Image.Funcs)]
}

// Unshare gives a marked program its own deep copy of the image's
// functions and globals and drops the mark, so the program's IR can be
// rewritten without touching the image or any other program linked
// against it. It does nothing to an unmarked program. The copies'
// functions, blocks and instructions are each cut from one array, with
// every block's slice capped at its own length so an append to one block
// cannot overwrite the next.
func (p *Program) Unshare() {
	img := p.Image
	if img == nil {
		return
	}
	p.Image = nil
	nBlocks, nInsns := 0, 0
	for _, f := range img.Funcs {
		nBlocks += len(f.Blocks)
		nInsns += f.NumInsns()
	}
	// New Funcs and Globals slices, so a copy of the Program struct that
	// shares them keeps its image's IR.
	nOwn := len(p.Funcs) - len(img.Funcs)
	p.Funcs = append(p.Funcs[:nOwn:nOwn], make([]*Func, len(img.Funcs))...)
	p.Globals = append(p.Globals[:0:0], p.Globals...)
	funcs := make([]Func, len(img.Funcs))
	blocks := make([]Block, 0, nBlocks)
	ptrs := make([]*Block, 0, nBlocks)
	insns := make([]Instr, 0, nInsns)
	for k, f := range img.Funcs {
		first := len(ptrs)
		for _, b := range f.Blocks {
			nb := *b
			if b.Insns != nil {
				start := len(insns)
				insns = append(insns, b.Insns...)
				for i := start; i < len(insns); i++ {
					if insns[i].Targets != nil {
						insns[i].Targets = append(insns[i].Targets[:0:0], insns[i].Targets...)
					}
				}
				nb.Insns = insns[start:len(insns):len(insns)]
			}
			blocks = append(blocks, nb)
			ptrs = append(ptrs, &blocks[len(blocks)-1])
		}
		funcs[k] = *f
		funcs[k].Blocks = ptrs[first:len(ptrs):len(ptrs)]
		p.Funcs[nOwn+k] = &funcs[k]
	}
	for i := range p.Globals {
		g := &p.Globals[i]
		g.Init = append(g.Init[:0:0], g.Init...)
	}
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// GlobalByName returns the global with the given name, or nil.
func (p *Program) GlobalByName(name string) *Global {
	for i := range p.Globals {
		if p.Globals[i].Name == name {
			return &p.Globals[i]
		}
	}
	return nil
}

// NumInsns returns the static instruction count of the whole program.
func (p *Program) NumInsns() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInsns()
	}
	return n
}

// NumCondBranches returns the number of static conditional branch sites.
func (p *Program) NumCondBranches() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Branch() != nil {
				n++
			}
		}
	}
	return n
}

// BranchRef identifies a static conditional branch site within a program.
type BranchRef struct {
	Func  string
	Block int
}

// String renders the site as func:bN.
func (r BranchRef) String() string { return fmt.Sprintf("%s:b%d", r.Func, r.Block) }

// Branches enumerates every static conditional branch site in the program,
// in deterministic (function then layout) order.
func (p *Program) Branches() []BranchRef {
	var refs []BranchRef
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Branch() != nil {
				refs = append(refs, BranchRef{Func: f.Name, Block: b.ID})
			}
		}
	}
	return refs
}
