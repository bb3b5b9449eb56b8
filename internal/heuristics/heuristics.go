// Package heuristics implements the program-based branch predictors the
// paper compares ESP against: BTFNT, the nine Ball/Larus heuristics of
// Table 1, their fixed-order combination (APHC), the Dempster-Shafer
// combination of Wu and Larus (DSHC), and the perfect static predictor.
package heuristics

import (
	"repro/internal/features"
)

// Prediction is a static branch prediction.
type Prediction int

// Prediction values.
const (
	None Prediction = iota // the predictor does not apply
	Taken
	NotTaken
)

// String renders the prediction.
func (p Prediction) String() string {
	switch p {
	case Taken:
		return "taken"
	case NotTaken:
		return "not-taken"
	}
	return "none"
}

// Heuristic identifies one of the Ball/Larus heuristics (Table 1).
type Heuristic int

// The nine Ball/Larus heuristics.
const (
	LoopBranch Heuristic = iota
	Pointer
	Opcode
	Guard
	LoopExit
	LoopHeader
	Call
	Store
	Return
	NumHeuristics
)

var heuristicNames = [NumHeuristics]string{
	"Loop Branch", "Pointer", "Opcode", "Guard", "Loop Exit",
	"Loop Header", "Call", "Store", "Return",
}

// String names the heuristic as in Table 1.
func (h Heuristic) String() string {
	if h < 0 || h >= NumHeuristics {
		return "unknown"
	}
	return heuristicNames[h]
}

// AllHeuristics lists the heuristics in Table 1 order.
func AllHeuristics() []Heuristic {
	hs := make([]Heuristic, NumHeuristics)
	for i := range hs {
		hs[i] = Heuristic(i)
	}
	return hs
}

// Config carries semantic knobs. The zero value follows Ball and Larus
// (PLDI'93) exactly.
type Config struct {
	// CallPredictsTaken flips the Call heuristic's polarity to the variant
	// printed in the paper's (OCR-damaged) Table 1: "predict the successor
	// that contains a call and does not post-dominate as taken". The
	// original Ball/Larus definition (the default) predicts it NOT taken.
	CallPredictsTaken bool
}

// Apply evaluates heuristic h on a branch site, returning Taken/NotTaken
// when the heuristic applies and None otherwise.
func Apply(h Heuristic, s *features.Site, cfg Config) Prediction {
	var p Prediction
	switch h {
	case LoopBranch:
		p = applyLoopBranch(s)
	case Pointer:
		p = applyPointer(s)
	case Opcode:
		p = applyOpcode(s)
	case Guard:
		p = applyGuard(s)
	case LoopExit:
		p = applyLoopExit(s)
	case LoopHeader:
		p = applyLoopHeader(s)
	case Call:
		p = applyCall(s)
	case Store:
		p = applyStore(s)
	case Return:
		p = applyReturn(s)
	}
	return cfg.verdict(h, p)
}

// verdict reads heuristic h's Config{} verdict p under c. This is the one
// place a Config acts: CallPredictsTaken swaps the Call verdict's Taken
// and NotTaken.
func (c Config) verdict(h Heuristic, p Prediction) Prediction {
	if h == Call && c.CallPredictsTaken && p != None {
		return Taken + NotTaken - p
	}
	return p
}

// Evidence is one branch site's verdicts, indexed by Heuristic, under
// Config{}: everything the heuristic predictors read of the site's CFG.
type Evidence [NumHeuristics]Prediction

// EvidenceOf evaluates every heuristic on every site of ps, in site order
// (the order of features.ExtractAll).
func EvidenceOf(ps *features.ProgramSites) []Evidence {
	out := make([]Evidence, len(ps.Sites))
	for i, s := range ps.Sites {
		for h := range out[i] {
			out[i][h] = Apply(Heuristic(h), s, Config{})
		}
	}
	return out
}

// applyLoopBranch: "Predict that the edge back to the loop's head is taken
// and the edge exiting the loop is not taken." A loop branch is a branch
// one of whose edges is a loop back edge — the loop's iteration branch.
// Exit-only branches (break-style tests) are non-loop branches, handled by
// the Loop Exit heuristic.
func applyLoopBranch(s *features.Site) Prediction {
	g := s.G
	if g.IsBackEdge(s.BlockIdx, s.TakenIdx) {
		return Taken
	}
	if g.IsBackEdge(s.BlockIdx, s.FallIdx) {
		return NotTaken
	}
	return None
}

// applyPointer: comparisons of a pointer against null or of two pointers
// are predicted false.
func applyPointer(s *features.Site) Prediction {
	c := s.Cond
	if c.Kind != features.CmpEq && c.Kind != features.CmpNe {
		return None
	}
	ptrCmp := (c.LeftPtr && c.RightZero) || (c.LeftPtr && c.RightPtr)
	if !ptrCmp {
		return None
	}
	// Cond.Kind holds when the branch is taken; "comparison false" means:
	// equality false. For a taken-condition of CmpEq the branch is predicted
	// not taken; for CmpNe, taken.
	if c.Kind == features.CmpEq {
		return NotTaken
	}
	return Taken
}

// applyOpcode: integer comparisons "x < 0", "x <= 0", and "x == constant"
// are predicted false.
func applyOpcode(s *features.Site) Prediction {
	c := s.Cond
	if c.Float || c.LeftPtr || c.RightPtr {
		return None
	}
	switch {
	case c.Kind == features.CmpLt && c.RightZero,
		c.Kind == features.CmpLe && c.RightZero,
		c.Kind == features.CmpEq && c.RightConst:
		return NotTaken // the taken-condition is one of the unlikely forms
	case c.Kind == features.CmpGe && c.RightZero,
		c.Kind == features.CmpGt && c.RightZero,
		c.Kind == features.CmpNe && c.RightConst:
		return Taken // the fall-through condition is the unlikely form
	}
	return None
}

// applyGuard: if a register (at source level, a variable) operand of the
// branch comparison is used before being defined in a successor block and
// that successor does not post-dominate the branch, predict that successor.
// Variables live in frame slots in this IR, so the use-before-def test runs
// over the memory locations that fed the branch.
func applyGuard(s *features.Site) Prediction {
	g := s.G
	takenGuards := features.ReadsLocBeforeWrite(g, s.TakenIdx, s.SourceLocs) &&
		!g.PostDominates(s.TakenIdx, s.BlockIdx)
	fallGuards := features.ReadsLocBeforeWrite(g, s.FallIdx, s.SourceLocs) &&
		!g.PostDominates(s.FallIdx, s.BlockIdx)
	// When both successors re-use the guarded variable the heuristic gives
	// no signal; only a one-sided use predicts.
	if takenGuards && !fallGuards {
		return Taken
	}
	if fallGuards && !takenGuards {
		return NotTaken
	}
	return None
}

// applyLoopExit: if a comparison is inside a loop and no successor is a loop
// head, predict the edge exiting the loop as not taken.
func applyLoopExit(s *features.Site) Prediction {
	g := s.G
	if g.Loops().Innermost(s.BlockIdx) == nil {
		return None
	}
	if g.Loops().IsHeader(s.TakenIdx) || g.Loops().IsHeader(s.FallIdx) {
		return None
	}
	takenExits := g.IsLoopExitEdge(s.BlockIdx, s.TakenIdx)
	fallExits := g.IsLoopExitEdge(s.BlockIdx, s.FallIdx)
	if takenExits && !fallExits {
		return NotTaken
	}
	if fallExits && !takenExits {
		return Taken
	}
	return None
}

// applyLoopHeader: predict the successor that is a loop header or pre-header
// and does not post-dominate the branch as taken.
func applyLoopHeader(s *features.Site) Prediction {
	g := s.G
	if g.ReachesLoopHeaderUncond(s.TakenIdx) && !g.PostDominates(s.TakenIdx, s.BlockIdx) {
		return Taken
	}
	if g.ReachesLoopHeaderUncond(s.FallIdx) && !g.PostDominates(s.FallIdx, s.BlockIdx) {
		return NotTaken
	}
	return None
}

// applyCall: a successor that contains a call and does not post-dominate the
// branch is predicted not taken (Ball/Larus); Config.CallPredictsTaken flips
// the polarity to the variant printed in this paper's Table 1.
func applyCall(s *features.Site) Prediction {
	g := s.G
	if g.ReachesCallUncond(s.TakenIdx) && !g.PostDominates(s.TakenIdx, s.BlockIdx) {
		return NotTaken
	}
	if g.ReachesCallUncond(s.FallIdx) && !g.PostDominates(s.FallIdx, s.BlockIdx) {
		return Taken
	}
	return None
}

// applyStore: a successor that contains a store instruction and does not
// post-dominate the branch is predicted not taken. Stack-pointer-relative
// stores are ignored: they are the IR's stand-in for register-allocated
// locals, which produce no memory traffic in the -O binaries the heuristic
// was designed for.
func applyStore(s *features.Site) Prediction {
	g := s.G
	if features.ContainsRealStore(g, s.TakenIdx) && !g.PostDominates(s.TakenIdx, s.BlockIdx) {
		return NotTaken
	}
	if features.ContainsRealStore(g, s.FallIdx) && !g.PostDominates(s.FallIdx, s.BlockIdx) {
		return Taken
	}
	return None
}

// applyReturn: a successor that contains a return is predicted not taken.
func applyReturn(s *features.Site) Prediction {
	g := s.G
	takenReturns := g.ContainsReturn(s.TakenIdx)
	fallReturns := g.ContainsReturn(s.FallIdx)
	if takenReturns && !fallReturns {
		return NotTaken
	}
	if fallReturns && !takenReturns {
		return Taken
	}
	return None
}
