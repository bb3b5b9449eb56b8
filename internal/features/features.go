package features

import (
	"fmt"
	"strings"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Feature indices, following Table 2 of the paper (0-based here; the paper
// numbers them 1-24). Features 8-15 describe the taken successor and 16-23
// the not-taken successor.
const (
	FBrOpcode = iota // opcode of the branch instruction
	FBrDirection
	FBrOperandOpcode // opcode of the instruction defining the tested register
	FRAOpcode        // opcode defining that instruction's first operand
	FRBOpcode        // opcode defining that instruction's second operand
	FLoopHeader
	FLanguage
	FProcedureType
	FTakenDominates
	FTakenPostdominates
	FTakenSuccEnds
	FTakenSuccLoop
	FTakenSuccBackedge
	FTakenSuccExit
	FTakenSuccUseDef
	FTakenSuccCall
	FNotTakenDominates
	FNotTakenPostdominates
	FNotTakenSuccEnds
	FNotTakenSuccLoop
	FNotTakenSuccBackedge
	FNotTakenSuccExit
	FNotTakenSuccUseDef
	FNotTakenSuccCall

	// FLibraryProc marks branches inside library subroutines — the paper's
	// Section 6 future-work feature ("we plan on indicating branches in
	// library subroutines, since those subroutines may have similar
	// behavior across a number of programs"), implemented here as feature
	// 25. The ablation benches measure its contribution.
	FLibraryProc

	// FCorrSharedCond and FCorrDomCond are sparse static inter-branch
	// correlation features (the direction of arXiv 2207.14033, recovered
	// statically): whether another branch in the same function tests one of
	// this branch's source locations, and whether a *dominating* branch
	// does — a dominating test of the same variable is the strongest static
	// signal that two branches resolve together. They need whole-program
	// context, so of alone leaves them Unknown; ExtractAll fills them. Like
	// FLibraryProc they are excluded from the model by default
	// (core.Config.IncludeCorrelationFeatures opts in), and an
	// always-Unknown or masked feature contributes zero encoder columns, so
	// the default feature set is bit-identical to the 25-feature one.
	FCorrSharedCond
	FCorrDomCond

	// NumFeatures is the size of the static feature set (the paper's 24
	// plus the library-subroutine extension plus the two inter-branch
	// correlation extensions).
	NumFeatures = 27
)

// Unknown is the value of a dependent feature that is not meaningful for a
// branch (the paper's "?"); the encoder gates such features to zero input
// activity.
const Unknown = "?"

// ImmValue marks an operand that is an instruction immediate rather than a
// register (visible directly in the instruction encoding, so a binary-level
// extractor can always recover it).
const ImmValue = "IMM"

// featureNames gives a short name per feature index (for reports and the
// decision-tree rule printer).
var featureNames = [NumFeatures]string{
	"br.opcode", "br.direction", "br.operand.opcode", "ra.opcode", "rb.opcode",
	"loop.header", "language", "proc.type",
	"taken.dominates", "taken.postdom", "taken.ends", "taken.loop",
	"taken.backedge", "taken.exit", "taken.usedef", "taken.call",
	"nottaken.dominates", "nottaken.postdom", "nottaken.ends", "nottaken.loop",
	"nottaken.backedge", "nottaken.exit", "nottaken.usedef", "nottaken.call",
	"proc.library", "corr.shared", "corr.dom",
}

// Name returns the short name of feature index i.
func Name(i int) string {
	if i < 0 || i >= NumFeatures {
		return fmt.Sprintf("feature%d", i)
	}
	return featureNames[i]
}

// Vector is the static feature set of one branch: the paper's 24
// categorical values plus the library-subroutine extension.
type Vector struct {
	Ref    ir.BranchRef
	Values [NumFeatures]string
}

// FromValues builds a Vector from explicit per-feature categorical values,
// as submitted by serving clients that extracted features elsewhere. It
// requires exactly NumFeatures values; empty strings are normalized to
// Unknown so a partially-populated vector still encodes (unknown features
// contribute zero input activity, same as "?").
func FromValues(vals []string) (Vector, error) {
	if len(vals) != NumFeatures {
		return Vector{}, fmt.Errorf("features: vector has %d values, want %d", len(vals), NumFeatures)
	}
	var v Vector
	copy(v.Values[:], vals)
	for i, val := range v.Values {
		if val == "" {
			v.Values[i] = Unknown
		}
	}
	return v, nil
}

// of extracts the Table 2 feature vector for a branch site.
func of(s *Site) Vector {
	v := Vector{Ref: s.Ref}
	g := s.G

	v.Values[FBrOpcode] = s.Branch.Op.String()
	if s.Backward() {
		v.Values[FBrDirection] = "B"
	} else {
		v.Values[FBrDirection] = "F"
	}
	v.Values[FBrOperandOpcode] = Unknown
	v.Values[FRAOpcode] = Unknown
	v.Values[FRBOpcode] = Unknown
	if def := s.DefInstr; def != nil {
		v.Values[FBrOperandOpcode] = def.Op.String()
		var buf [3]ir.Reg
		uses := def.AppendUses(buf[:0])
		blk := g.Block(s.BlockIdx)
		if len(uses) > 0 {
			if d, _ := defInstr(blk, s.DefIdx, uses[0]); d != nil {
				v.Values[FRAOpcode] = d.Op.String()
			}
		}
		if def.UseImm {
			v.Values[FRBOpcode] = ImmValue
		} else if len(uses) > 1 {
			if d, _ := defInstr(blk, s.DefIdx, uses[1]); d != nil {
				v.Values[FRBOpcode] = d.Op.String()
			}
		}
	}
	if g.Loops().IsHeader(s.BlockIdx) {
		v.Values[FLoopHeader] = "LH"
	} else {
		v.Values[FLoopHeader] = "NLH"
	}
	v.Values[FLanguage] = string(s.Fn.Language)
	v.Values[FProcedureType] = s.ProcType

	fillSucc(v.Values[FTakenDominates:FTakenSuccCall+1], s, s.TakenIdx)
	fillSucc(v.Values[FNotTakenDominates:FNotTakenSuccCall+1], s, s.FallIdx)
	if IsLibraryFunc(s.Fn.Name) {
		v.Values[FLibraryProc] = "LIB"
	} else {
		v.Values[FLibraryProc] = "USER"
	}
	// The correlation features compare against the function's other branch
	// sites, which a single site cannot see; ExtractAll fills them.
	v.Values[FCorrSharedCond] = Unknown
	v.Values[FCorrDomCond] = Unknown
	return v
}

// IsLibraryFunc reports whether a function belongs to the linked runtime
// library (the corpus convention: the lib_ prefix).
func IsLibraryFunc(name string) bool {
	return strings.HasPrefix(name, "lib_")
}

// fillSucc fills the eight per-successor features (9-16 / 17-24 in the
// paper's numbering) into dst, which must have length 8.
func fillSucc(dst []string, s *Site, succIdx int) {
	g := s.G
	if g.Dominates(s.BlockIdx, succIdx) {
		dst[0] = "D"
	} else {
		dst[0] = "ND"
	}
	if g.PostDominates(succIdx, s.BlockIdx) {
		dst[1] = "PD"
	} else {
		dst[1] = "NPD"
	}
	dst[2] = succEnds(g, succIdx)
	if g.ReachesLoopHeaderUncond(succIdx) {
		dst[3] = "LH"
	} else {
		dst[3] = "NLH"
	}
	if g.IsBackEdge(s.BlockIdx, succIdx) {
		dst[4] = "LB"
	} else {
		dst[4] = "NLB"
	}
	if g.IsLoopExitEdge(s.BlockIdx, succIdx) {
		dst[5] = "LE"
	} else {
		dst[5] = "NLE"
	}
	if ReadsLocBeforeWrite(g, succIdx, s.SourceLocs) {
		dst[6] = "UBD"
	} else {
		dst[6] = "NU"
	}
	if g.ReachesCallUncond(succIdx) {
		dst[7] = "PC"
	} else {
		dst[7] = "NPC"
	}
}

// succEnds classifies the control transfer ending the successor block
// (feature 11/19: FT, CBR, UBR, BSR, JUMP, IJUMP, JSR, IJSR, RETURN,
// COROUTINE, or NOTHING).
func succEnds(g *cfg.Graph, succIdx int) string {
	b := g.Block(succIdx)
	t := b.Terminator()
	if t == nil {
		if n := len(b.Insns); n > 0 {
			switch b.Insns[n-1].Op {
			case ir.OpBsr:
				return "BSR"
			case ir.OpJsr:
				return "JSR"
			}
		}
		if len(b.Insns) == 0 {
			return "NOTHING"
		}
		return "FT"
	}
	switch t.Op.Class() {
	case ir.ClassCondBranch:
		return "CBR"
	case ir.ClassUncondBranch:
		return "UBR"
	case ir.ClassIndirectJump:
		return "IJUMP"
	case ir.ClassReturn:
		return "RETURN"
	}
	return "NOTHING"
}

// ExtractAll returns feature vectors for every site of a program, in the
// deterministic site order, with the whole-program correlation features
// (FCorrSharedCond, FCorrDomCond) filled in.
func ExtractAll(ps *ProgramSites) []Vector {
	out := make([]Vector, 0, len(ps.Sites))
	shared := ps.shared
	// Collect sorts sites by function, so each function's sites are one run.
	for start := 0; start < len(ps.Sites); {
		if len(shared) > 0 && shared[0].start == start {
			out = append(out, shared[0].vecs...)
			start += len(shared[0].vecs)
			shared = shared[1:]
			continue
		}
		end := start + 1
		for end < len(ps.Sites) && ps.Sites[end].Ref.Func == ps.Sites[start].Ref.Func {
			end++
		}
		fnSites := ps.Sites[start:end]
		for _, s := range fnSites {
			v := of(s)
			fillCorrelation(&v, s, fnSites)
			out = append(out, v)
		}
		start = end
	}
	return out
}

// fillCorrelation fills the inter-branch correlation features of one site
// by scanning the other branch sites of its function: SHARED when any other
// branch tests one of the same source locations (PRIVATE otherwise), and
// DOM when such a branch's block additionally dominates this one (NDOM
// otherwise). Sites with no recovered source locations stay Unknown — the
// encoder gates them to zero input activity like any dependent feature.
func fillCorrelation(v *Vector, s *Site, fnSites []*Site) {
	if len(s.SourceLocs) == 0 {
		return
	}
	v.Values[FCorrSharedCond] = "PRIVATE"
	v.Values[FCorrDomCond] = "NDOM"
	for _, o := range fnSites {
		if o == s || !sharesLoc(s.SourceLocs, o.SourceLocs) {
			continue
		}
		v.Values[FCorrSharedCond] = "SHARED"
		if s.G.Dominates(o.BlockIdx, s.BlockIdx) {
			v.Values[FCorrDomCond] = "DOM"
			return
		}
	}
}

// sharesLoc reports whether the two location sets intersect.
func sharesLoc(a, b []MemLoc) bool {
	for _, la := range a {
		for _, lb := range b {
			if la == lb {
				return true
			}
		}
	}
	return false
}
