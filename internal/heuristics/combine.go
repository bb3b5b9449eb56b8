package heuristics

import (
	"repro/internal/features"
	"repro/internal/interp"
)

// Predictor is any static branch predictor: it estimates the probability
// p that a branch site is taken from the site's feature vector and
// heuristic evidence. The site is predicted taken when p > 0.5 and
// not-taken otherwise. A predictor may decline (ok == false), and then p
// is exactly 0.5: evaluation charges the expected 50% miss rate of a
// uniform random prediction, exactly as the paper treats uncovered
// branches, and profile estimation reads the uninformed 0.5.
type Predictor interface {
	Prob(v *features.Vector, ev *Evidence) (p float64, ok bool)
}

// direction is the prediction a predictor's (p, ok) answer stands for.
func direction(p float64, ok bool) Prediction {
	switch {
	case !ok:
		return None
	case p > 0.5:
		return Taken
	}
	return NotTaken
}

// probOf is the probability a directional predictor reports for pred.
func probOf(pred Prediction) (float64, bool) {
	switch pred {
	case Taken:
		return 1, true
	case NotTaken:
		return 0, true
	}
	return 0.5, false
}

// --- BTFNT -------------------------------------------------------------------

// BTFNT is backward-taken/forward-not-taken: the baseline that relies only
// on the sign of the branch displacement.
type BTFNT struct{}

// Prob implements Predictor.
func (BTFNT) Prob(v *features.Vector, _ *Evidence) (float64, bool) {
	if v.Values[features.FBrDirection] == "B" {
		return 1, true
	}
	return 0, true
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

// Prob implements Predictor.
func (a *APHC) Prob(_ *features.Vector, ev *Evidence) (float64, bool) {
	p, _, _ := a.PredictWith(ev)
	return probOf(p)
}

// PredictWith additionally reports which heuristic fired.
func (a *APHC) PredictWith(ev *Evidence) (Prediction, Heuristic, bool) {
	order := a.Order
	if order == nil {
		order = DefaultOrder
	}
	for _, h := range order {
		if p := a.Cfg.verdict(h, ev[h]); p != None {
			return p, h, true
		}
	}
	return None, 0, false
}

// --- DSHC --------------------------------------------------------------------

// DSHC combines every applicable heuristic's evidence with the
// Dempster-Shafer combination rule (Wu and Larus). Each heuristic h that
// predicts a direction contributes its historical hit rate HitRate[h] as the
// probability of that direction; the combined taken-probability is
//
//	Π p_i / (Π p_i + Π (1-p_i))
//
// over the per-heuristic taken-probabilities p_i.
type DSHC struct {
	HitRate [NumHeuristics]float64 // probability the heuristic's prediction is correct
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
	d := &DSHC{}
	for h := Heuristic(0); h < NumHeuristics; h++ {
		d.HitRate[h] = 1 - BallLarusMIPSMiss[h]
	}
	return d
}

// NewDSHCFromMiss returns DSHC configured from measured per-heuristic miss
// rates — the paper's "DSHC(Ours)" column uses the rates measured on our own
// corpus (Table 6's "Overall" column).
func NewDSHCFromMiss(miss [NumHeuristics]float64) *DSHC {
	d := &DSHC{}
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
		d.HitRate[h] = p
	}
	return d
}

// Prob implements Predictor: the Dempster-Shafer combined probability that
// the branch is taken. It declines when no heuristic applies or the
// evidence cancels out to exactly 0.5.
func (d *DSHC) Prob(_ *features.Vector, ev *Evidence) (float64, bool) {
	pTaken, pNot := 1.0, 1.0
	applied := false
	for h, pred := range ev {
		if pred == None {
			continue
		}
		applied = true
		p := d.HitRate[h]
		if pred == Taken {
			pTaken *= p
			pNot *= 1 - p
		} else {
			pTaken *= 1 - p
			pNot *= p
		}
	}
	if den := pTaken + pNot; applied && den != 0 {
		if p := pTaken / den; p != 0.5 {
			return p, true
		}
	}
	return 0.5, false // no evidence or an exact tie: the random default
}

// --- Perfect -----------------------------------------------------------------

// Perfect is the perfect static profile predictor: with the program's own
// profile in hand it reports each branch's measured taken fraction, so it
// predicts the majority direction — the lower bound for any static scheme
// (the paper's 8% column). A branch the run never executed reads 0.5 (a
// real profile carries no evidence about it either) and is predicted
// not-taken.
type Perfect struct {
	Prof *interp.Profile
}

// Prob implements Predictor. For counts below 2^53 the taken fraction
// exceeds 0.5 exactly when 2*Taken > Executed.
func (p *Perfect) Prob(v *features.Vector, _ *Evidence) (float64, bool) {
	if c := p.Prof.Branches[v.Ref]; c != nil && c.Executed > 0 {
		return c.TakenFraction(), true
	}
	return 0.5, true
}

// --- Fixed -------------------------------------------------------------------

// Fixed predicts every branch the same way (a trivial baseline used in
// tests and ablations). Fixed{} declines every branch: the uninformed 0.5
// baseline.
type Fixed struct {
	Direction Prediction
}

// Prob implements Predictor.
func (f Fixed) Prob(*features.Vector, *Evidence) (float64, bool) {
	return probOf(f.Direction)
}
