package heuristics

import (
	"repro/internal/features"
	"repro/internal/interp"
)

// Predictor is any static branch predictor: it predicts a direction for a
// branch site or declines (ok == false), in which case evaluation charges
// the expected 50% miss rate of a uniform random prediction, exactly as the
// paper treats uncovered branches.
type Predictor interface {
	Name() string
	PredictSite(s *features.Site) (pred Prediction, ok bool)
}

// --- BTFNT -------------------------------------------------------------------

// BTFNT is backward-taken/forward-not-taken: the baseline that relies only
// on the sign of the branch displacement.
type BTFNT struct{}

// Name implements Predictor.
func (BTFNT) Name() string { return "BTFNT" }

// PredictSite implements Predictor.
func (BTFNT) PredictSite(s *features.Site) (Prediction, bool) {
	if s.Backward() {
		return Taken, true
	}
	return NotTaken, true
}

// --- APHC --------------------------------------------------------------------

// DefaultOrder is the fixed heuristic order used by APHC: the loop heuristic
// first (Ball and Larus always predict loop branches with it), then the
// non-loop heuristics in the best fixed order reported by Ball and Larus'
// experiment over all orders.
var DefaultOrder = []Heuristic{
	LoopBranch, Pointer, Call, Opcode, Return, Store, LoopHeader, Guard, LoopExit,
}

// APHC is the a priori heuristic combination: heuristics are tried in a
// fixed order and the first that applies predicts the branch.
type APHC struct {
	Order []Heuristic
	Cfg   Config
}

// NewAPHC returns an APHC predictor with the default order.
func NewAPHC() *APHC { return &APHC{Order: DefaultOrder} }

// Name implements Predictor.
func (a *APHC) Name() string { return "APHC" }

// PredictSite implements Predictor.
func (a *APHC) PredictSite(s *features.Site) (Prediction, bool) {
	p, _, ok := a.PredictWith(s)
	return p, ok
}

// PredictWith additionally reports which heuristic fired.
func (a *APHC) PredictWith(s *features.Site) (Prediction, Heuristic, bool) {
	order := a.Order
	if order == nil {
		order = DefaultOrder
	}
	for _, h := range order {
		if p := Apply(h, s, a.Cfg); p != None {
			return p, h, true
		}
	}
	return None, 0, false
}

// --- DSHC --------------------------------------------------------------------

// DSHC combines every applicable heuristic's evidence with the
// Dempster-Shafer combination rule (Wu and Larus). Each heuristic h that
// predicts a direction contributes its historical hit rate Prob[h] as the
// probability of that direction; the combined taken-probability is
//
//	Π p_i / (Π p_i + Π (1-p_i))
//
// over the per-heuristic taken-probabilities p_i.
type DSHC struct {
	Name_ string
	Prob  [NumHeuristics]float64 // probability the heuristic's prediction is correct
	Cfg   Config
}

// BallLarusMIPSMiss holds the per-heuristic miss rates Ball and Larus report
// on the MIPS (the "B&L (MIPS)" column of Table 6); Wu and Larus plugged
// these into Dempster-Shafer, giving the paper's DSHC(B&L) configuration.
var BallLarusMIPSMiss = [NumHeuristics]float64{
	LoopBranch: 0.12,
	Pointer:    0.40,
	Opcode:     0.16,
	Guard:      0.38,
	LoopExit:   0.20,
	LoopHeader: 0.25,
	Call:       0.22,
	Store:      0.45,
	Return:     0.28,
}

// NewDSHCBallLarus returns DSHC configured with the Ball/Larus published
// rates — the paper's "DSHC(B&L)" column.
func NewDSHCBallLarus() *DSHC {
	d := &DSHC{Name_: "DSHC(B&L)"}
	for h := Heuristic(0); h < NumHeuristics; h++ {
		d.Prob[h] = 1 - BallLarusMIPSMiss[h]
	}
	return d
}

// NewDSHCFromMiss returns DSHC configured from measured per-heuristic miss
// rates — the paper's "DSHC(Ours)" column uses the rates measured on our own
// corpus (Table 6's "Overall" column).
func NewDSHCFromMiss(name string, miss [NumHeuristics]float64) *DSHC {
	d := &DSHC{Name_: name}
	for h := Heuristic(0); h < NumHeuristics; h++ {
		p := 1 - miss[h]
		// Clamp away from 0/1: Dempster-Shafer with certainty-1 evidence
		// would veto all other heuristics.
		if p < 0.01 {
			p = 0.01
		}
		if p > 0.99 {
			p = 0.99
		}
		d.Prob[h] = p
	}
	return d
}

// Name implements Predictor.
func (d *DSHC) Name() string {
	if d.Name_ != "" {
		return d.Name_
	}
	return "DSHC"
}

// TakenProbability returns the Dempster-Shafer combined probability that the
// branch is taken, and whether any heuristic applied.
func (d *DSHC) TakenProbability(s *features.Site) (float64, bool) {
	pTaken, pNot := 1.0, 1.0
	applied := false
	for h := Heuristic(0); h < NumHeuristics; h++ {
		pred := Apply(h, s, d.Cfg)
		if pred == None {
			continue
		}
		applied = true
		p := d.Prob[h]
		if pred == Taken {
			pTaken *= p
			pNot *= 1 - p
		} else {
			pTaken *= 1 - p
			pNot *= p
		}
	}
	if !applied {
		return 0.5, false
	}
	den := pTaken + pNot
	if den == 0 {
		return 0.5, true
	}
	return pTaken / den, true
}

// PredictSite implements Predictor.
func (d *DSHC) PredictSite(s *features.Site) (Prediction, bool) {
	p, ok := d.TakenProbability(s)
	if !ok {
		return None, false
	}
	if p > 0.5 {
		return Taken, true
	}
	if p < 0.5 {
		return NotTaken, true
	}
	return None, false // exact tie: fall back to the random default
}

// --- Perfect -----------------------------------------------------------------

// Perfect is the perfect static profile predictor: with the program's own
// profile in hand it predicts each branch's majority direction — the lower
// bound for any static scheme (the paper's 8% column).
type Perfect struct {
	Prof *interp.Profile
}

// Name implements Predictor.
func (p *Perfect) Name() string { return "Perfect" }

// PredictSite implements Predictor.
func (p *Perfect) PredictSite(s *features.Site) (Prediction, bool) {
	c := p.Prof.Branches[s.Ref]
	if c == nil || c.Executed == 0 {
		return NotTaken, true
	}
	if 2*c.Taken > c.Executed {
		return Taken, true
	}
	return NotTaken, true
}

// --- Fixed -------------------------------------------------------------------

// Fixed predicts every branch the same way (a trivial baseline used in
// tests and ablations).
type Fixed struct {
	Direction Prediction
}

// Name implements Predictor.
func (f Fixed) Name() string { return "Fixed(" + f.Direction.String() + ")" }

// PredictSite implements Predictor.
func (f Fixed) PredictSite(*features.Site) (Prediction, bool) {
	return f.Direction, true
}
