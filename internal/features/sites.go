// Package features implements the paper's Table 2 static feature set: for
// every two-way conditional branch it extracts the 24 categorical features
// of the paper (the branch opcode and direction, the opcodes defining the
// branch's operands, loop and language context, and eight structural
// features for each of the two successors) plus the Section 6
// library-subroutine extension, together with the shared condition analysis
// that both the feature extractor and the Ball/Larus heuristics consume.
package features

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Site is one static conditional branch with the analysis context shared by
// feature extraction and the prediction heuristics.
type Site struct {
	Ref      ir.BranchRef
	Fn       *ir.Func
	G        *cfg.Graph
	BlockIdx int       // dense index of the branch block
	Branch   *ir.Instr // the conditional branch terminator
	TakenIdx int       // dense index of the taken successor
	FallIdx  int       // dense index of the fall-through successor

	// DefInstr is the in-block instruction defining the branch's tested
	// register, or nil when the register is defined in a previous block.
	DefInstr *ir.Instr
	// DefIdx is the instruction index of DefInstr within the block (-1).
	DefIdx int

	// Cond is the recovered source-level condition of the branch.
	Cond CondInfo

	// ProcType is the enclosing procedure's type (Leaf/NonLeaf/CallSelf).
	ProcType string

	// SourceLocs are the memory locations (frame slots and globals) whose
	// values determined the branch direction — the variables "used in the
	// branch comparison" at source level. The Guard heuristic and feature
	// 15 test whether a successor reads one of them before writing it.
	SourceLocs []MemLoc
}

// Backward reports whether the branch is a backward branch: its target does
// not come after its own block in layout order. The branch ends its block,
// so a branch to the start of its own block jumps backward.
func (s *Site) Backward() bool { return s.TakenIdx <= s.BlockIdx }

// MemLoc is an abstract memory location: a stack-frame word (Base == "") or
// a word of a named global.
type MemLoc struct {
	Base string
	Off  int64
}

// CondInfo describes the semantic comparison a conditional branch performs,
// reconstructed from the instruction stream the way the paper reconstructed
// abstract syntax trees from Alpha binaries (Section 5.2.1).
type CondInfo struct {
	// Kind is the comparison relation with respect to the *taken* direction:
	// the branch is taken exactly when "Left Kind Right" holds.
	Kind CmpKind
	// Float marks floating-point comparisons.
	Float bool
	// LeftPtr/RightPtr mark pointer-valued operands.
	LeftPtr  bool
	RightPtr bool
	// RightZero marks comparison against constant zero (x < 0, p == null…).
	RightZero bool
	// RightConst marks comparison against a compile-time constant (including
	// zero).
	RightConst bool
}

// CmpKind is a comparison relation.
type CmpKind int

// Comparison relations. CmpNone means the branch tests a raw value that was
// not produced by a recognizable comparison (tested against zero).
const (
	CmpNone CmpKind = iota
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Negate returns the complementary relation.
func (k CmpKind) Negate() CmpKind {
	switch k {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpGe:
		return CmpLt
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	}
	return CmpNone
}

// String names the relation.
func (k CmpKind) String() string {
	switch k {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// ProgramSites collects every two-way conditional branch site of the
// program, in deterministic order, with graphs and pointer analysis shared
// across sites.
type ProgramSites struct {
	Prog   *ir.Program
	Graphs map[string]*cfg.Graph
	Ptrs   map[string]*cfg.PointerInfo
	Sites  []*Site
}

// totalCollects counts Collect calls process-wide. The generated-corpus
// tests use it to prove that a warm analysis collects no sites.
var totalCollects atomic.Int64

// TotalCollects returns the number of Collect calls made by this process.
func TotalCollects() int64 { return totalCollects.Load() }

// Collect analyzes a program and returns all of its branch sites.
//
// A program marked with a library image (ir.Program.Image) pays only for
// its own functions: each library function's graph is the image's frozen
// graph, its pointer facts take the image's recorded results wherever the
// linked program's inputs to them are the image's (cfg.LibraryPointers),
// and when its facts equal the ones the image has alone, its sites are the
// image's sites. A function whose facts differ is analyzed in full. The
// library's IR is the image's own, so either way the result equals Collect
// on the same IR unmarked; the shared graphs, facts and sites are
// read-only. A library function's vectors are the image's in both cases
// (ExtractOwn).
func Collect(prog *ir.Program) *ProgramSites {
	totalCollects.Add(1)
	if prog.Image == nil {
		return collect(prog, nil, cfg.ProgramPointers)
	}
	img := imageOf(prog.Image)
	return collect(prog, img, img.ptrs.Linked)
}

// collect is Collect, reusing img's analysis for the library functions
// when img is non-nil, with pointers computing the pointer facts of a
// program over its graphs.
func collect(prog *ir.Program, img *imageSites, pointers func(*ir.Program, map[string]*cfg.Graph) map[string]*cfg.PointerInfo) *ProgramSites {
	ps := &ProgramSites{
		Prog:   prog,
		Graphs: make(map[string]*cfg.Graph, len(prog.Funcs)),
	}
	nOwn := len(prog.Funcs)
	n := 0 // sites analyzed here
	if img != nil {
		nOwn -= len(img.graphs)
		for _, g := range img.graphs {
			ps.Graphs[g.Fn.Name] = g
		}
	}
	for _, fn := range prog.Funcs[:nOwn] {
		g := cfg.New(fn)
		ps.Graphs[fn.Name] = g
		for i := 0; i < g.N(); i++ {
			if g.IsBranchBlock(i) {
				n++
			}
		}
	}
	ps.Ptrs = pointers(prog, ps.Graphs)
	// A library function shares the image's sites when its facts are the
	// image's; otherwise it is analyzed in full, like an own function.
	var full []bool
	nShared := 0
	if img != nil {
		full = make([]bool, len(img.graphs))
		for k, g := range img.graphs {
			if full[k] = !ps.Ptrs[g.Fn.Name].SameFacts(img.facts[k]); full[k] {
				n += len(img.sites[k])
			} else {
				nShared += len(img.sites[k])
			}
		}
	}
	// Sites are ordered by (function name, block ID): visit the functions
	// by name and sort each function's sites by block.
	order := make([]int, len(prog.Funcs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(prog.Funcs[a].Name, prog.Funcs[b].Name) })
	ps.Sites = make([]*Site, 0, n+nShared)
	// The sites collected here are cut from one slab sized up front, so
	// pointers into it stay valid; sites shared from an image are the
	// image's. Their SourceLocs rows are cut from one shared array too;
	// corpus sites average 1.2 locations. Should append ever move the
	// array, rows already cut keep the old one, which nothing writes again.
	slab := make([]Site, 0, n)
	locs := make([]MemLoc, 0, 2*n)
	for _, fi := range order {
		fn := prog.Funcs[fi]
		g := ps.Graphs[fn.Name]
		if k := fi - nOwn; k >= 0 && !full[k] {
			ps.Sites = append(ps.Sites, img.sites[k]...)
			continue
		}
		procType := procedureType(fn)
		start := len(slab)
		for i := 0; i < g.N(); i++ {
			if !g.IsBranchBlock(i) {
				continue
			}
			slab = append(slab, Site{
				Ref:      ir.BranchRef{Func: fn.Name, Block: g.Block(i).ID},
				Fn:       fn,
				G:        g,
				BlockIdx: i,
				Branch:   g.Block(i).Branch(),
				ProcType: procType,
			})
			s := &slab[len(slab)-1]
			s.TakenIdx, s.FallIdx = g.TakenSucc(i)
			s.DefInstr, s.DefIdx = defInstr(g.Block(i), len(g.Block(i).Insns)-1, s.Branch.A)
			s.Cond = condInfo(ps.Ptrs[fn.Name], g, i, s)
			first := len(locs)
			locs = appendSourceLocs(locs, g.Block(i), s)
			if len(locs) > first {
				s.SourceLocs = locs[first:len(locs):len(locs)]
			}
		}
		slices.SortFunc(slab[start:], func(a, b Site) int { return cmp.Compare(a.Ref.Block, b.Ref.Block) })
		for i := start; i < len(slab); i++ {
			ps.Sites = append(ps.Sites, &slab[i])
		}
	}
	return ps
}

// procedureType classifies the function: Leaf (no calls), CallSelf
// (recursive), or NonLeaf — feature 8 of Table 2.
func procedureType(fn *ir.Func) string {
	hasCall := false
	for _, b := range fn.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Op.IsCall() {
				hasCall = true
				if in.Op == ir.OpBsr && in.Sym == fn.Name {
					return "CallSelf"
				}
			}
		}
	}
	if hasCall {
		return "NonLeaf"
	}
	return "Leaf"
}

// defInstr scans backward from instruction index before in the block for the
// instruction defining register r. It returns (nil, -1) if r is defined in a
// previous block (or is an argument).
func defInstr(b *ir.Block, before int, r ir.Reg) (*ir.Instr, int) {
	for j := before - 1; j >= 0; j-- {
		if d, ok := b.Insns[j].Def(); ok && d == r {
			return &b.Insns[j], j
		}
	}
	return nil, -1
}

// condInfo reconstructs the branch's source-level condition.
func condInfo(pi *cfg.PointerInfo, g *cfg.Graph, blockIdx int, s *Site) CondInfo {
	br := s.Branch
	branchInsnIdx := len(g.Block(blockIdx).Insns) - 1
	var ci CondInfo

	// MIPS-style two-register branch: x ==/!= y directly.
	if br.Op.IsTwoRegBranch() {
		if br.Op == ir.OpBeq2 {
			ci.Kind = CmpEq
		} else {
			ci.Kind = CmpNe
		}
		if pi != nil {
			ci.LeftPtr = pi.OperandIsPointer(blockIdx, branchInsnIdx, 0)
			ci.RightPtr = pi.OperandIsPointer(blockIdx, branchInsnIdx, 1)
		}
		return ci
	}

	baseKind := branchRelation(br.Op)
	def := s.DefInstr
	if def == nil || !def.Op.IsCompare() {
		// The branch tests a raw value against zero. If the value is a
		// pointer, this is a null comparison (p ==/!= null).
		ci.Kind = baseKind
		ci.Float = br.Op.IsFloat()
		ci.RightZero = true
		ci.RightConst = true
		if pi != nil {
			ci.LeftPtr = pi.OperandIsPointer(blockIdx, branchInsnIdx, 0)
		}
		return ci
	}

	// The branch tests the boolean result of a compare instruction: recover
	// the compare relation; BEQ on the result negates it.
	switch def.Op {
	case ir.OpCmpEq, ir.OpCmpTEq:
		ci.Kind = CmpEq
	case ir.OpCmpLt, ir.OpCmpTLt:
		ci.Kind = CmpLt
	case ir.OpCmpLe, ir.OpCmpTLe:
		ci.Kind = CmpLe
	}
	ci.Float = def.Op.Class() == ir.ClassFloatCmp
	switch baseKind {
	case CmpEq: // branch taken when compare result == 0: negated
		ci.Kind = ci.Kind.Negate()
	case CmpNe: // taken when result != 0: as-is
	default:
		// Relational branch on a 0/1 compare result (unusual); treat the
		// compare relation as the condition.
	}
	if pi != nil {
		ci.LeftPtr = pi.OperandIsPointer(blockIdx, s.DefIdx, 0)
		ci.RightPtr = !def.UseImm && pi.OperandIsPointer(blockIdx, s.DefIdx, 1)
	}
	if def.UseImm {
		ci.RightConst = true
		ci.RightZero = def.Imm == 0
	} else if rdef, _ := defInstr(g.Block(blockIdx), s.DefIdx, def.B); rdef != nil && rdef.Op == ir.OpLdiQ {
		ci.RightConst = true
		ci.RightZero = rdef.Imm == 0
	}
	return ci
}

// branchRelation maps a conditional branch opcode to the relation it tests
// (against zero for the single-register forms).
func branchRelation(op ir.Op) CmpKind {
	switch op {
	case ir.OpBeq, ir.OpFbeq:
		return CmpEq
	case ir.OpBne, ir.OpFbne:
		return CmpNe
	case ir.OpBlt, ir.OpFblt:
		return CmpLt
	case ir.OpBle, ir.OpFble:
		return CmpLe
	case ir.OpBgt, ir.OpFbgt:
		return CmpGt
	case ir.OpBge, ir.OpFbge:
		return CmpGe
	}
	return CmpNone
}

// appendSourceLocs appends the site's source locations to locs: the memory
// locations whose loads fed the branch, found by tracing the branch's tested
// register(s) and, when the branch tests a compare result, the compare's
// operands, each back to an in-block load from a frame slot or a global.
func appendSourceLocs(locs []MemLoc, b *ir.Block, s *Site) []MemLoc {
	first := len(locs)
	var buf [3]ir.Reg
	for _, r := range s.Branch.AppendUses(buf[:0]) {
		locs = appendSourceLoc(locs, first, b, len(b.Insns)-1, r)
	}
	if s.DefInstr != nil && s.DefInstr.Op.IsCompare() {
		for _, r := range s.DefInstr.AppendUses(buf[:0]) {
			locs = appendSourceLoc(locs, first, b, s.DefIdx, r)
		}
	}
	return locs
}

// appendSourceLoc traces register r, read by instruction before of block b,
// to an in-block load and appends the load's location to locs unless
// locs[first:] already holds it.
func appendSourceLoc(locs []MemLoc, first int, b *ir.Block, before int, r ir.Reg) []MemLoc {
	def, idx := defInstr(b, before, r)
	if def == nil {
		return locs
	}
	loc, ok := loadLoc(b, idx, def)
	if !ok || slices.Contains(locs[first:], loc) {
		return locs
	}
	return append(locs, loc)
}

// loadLoc resolves a load instruction's address to an abstract location:
// SP-relative directly, or via an in-block LDA for globals.
func loadLoc(b *ir.Block, idx int, in *ir.Instr) (MemLoc, bool) {
	if !in.Op.IsLoad() {
		return MemLoc{}, false
	}
	if in.A == ir.RegSP {
		return MemLoc{Base: "", Off: in.Imm}, true
	}
	base, _ := defInstr(b, idx, in.A)
	if base != nil && base.Op == ir.OpLda {
		return MemLoc{Base: base.Sym, Off: base.Imm + in.Imm}, true
	}
	return MemLoc{}, false
}

// ReadsLocBeforeWrite reports whether dense block idx loads one of the
// locations before storing to it — the memory-level reading of "a register
// is used before being defined in a successor block" for code whose
// variables live in frame slots.
func ReadsLocBeforeWrite(g *cfg.Graph, idx int, locs []MemLoc) bool {
	if len(locs) == 0 {
		return false
	}
	written := make(map[MemLoc]bool)
	b := g.Block(idx)
	for i := range b.Insns {
		in := &b.Insns[i]
		if in.Op.IsLoad() {
			if loc, ok := loadLoc(b, i, in); ok && !written[loc] {
				for _, want := range locs {
					if loc == want {
						return true
					}
				}
			}
			continue
		}
		if in.Op.IsStore() {
			if loc, ok := storeLoc(b, i, in); ok {
				written[loc] = true
			}
		}
	}
	return false
}

func storeLoc(b *ir.Block, idx int, in *ir.Instr) (MemLoc, bool) {
	if in.A == ir.RegSP {
		return MemLoc{Base: "", Off: in.Imm}, true
	}
	base, _ := defInstr(b, idx, in.A)
	if base != nil && base.Op == ir.OpLda {
		return MemLoc{Base: base.Sym, Off: base.Imm + in.Imm}, true
	}
	return MemLoc{}, false
}

// ContainsRealStore reports whether dense block idx contains a store to
// memory other than the stack frame. Stack-pointer-relative stores model
// register-allocated locals (no memory traffic at -O), so the Store
// heuristic must not see them.
func ContainsRealStore(g *cfg.Graph, idx int) bool {
	b := g.Block(idx)
	for i := range b.Insns {
		in := &b.Insns[i]
		if in.Op.IsStore() && in.A != ir.RegSP {
			return true
		}
	}
	return false
}
