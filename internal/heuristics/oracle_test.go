package heuristics_test

import (
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
)

// This file keeps the site-walking evaluators the predictors replaced:
// each oracle re-evaluates the heuristics on the CFG at every query, and
// the Call polarity is decided inside the CFG walk rather than by flipping
// a stored verdict. The differential tests require the vector-and-evidence
// evaluators to match them bit for bit.

// sitePredictor is the predictor interface over CFG sites.
type sitePredictor interface {
	PredictSite(s *features.Site) (heuristics.Prediction, bool)
}

// oracleApply is heuristics.Apply with the Call heuristic's polarity
// decided in its CFG walk.
func oracleApply(h heuristics.Heuristic, s *features.Site, cfg heuristics.Config) heuristics.Prediction {
	if h != heuristics.Call {
		return heuristics.Apply(h, s, heuristics.Config{})
	}
	g := s.G
	predictAvoid := func(succTaken bool) heuristics.Prediction {
		if cfg.CallPredictsTaken == succTaken {
			return heuristics.Taken
		}
		return heuristics.NotTaken
	}
	if g.ReachesCallUncond(s.TakenIdx) && !g.PostDominates(s.TakenIdx, s.BlockIdx) {
		return predictAvoid(true)
	}
	if g.ReachesCallUncond(s.FallIdx) && !g.PostDominates(s.FallIdx, s.BlockIdx) {
		return predictAvoid(false)
	}
	return heuristics.None
}

type oracleBTFNT struct{}

func (oracleBTFNT) PredictSite(s *features.Site) (heuristics.Prediction, bool) {
	if s.Backward() {
		return heuristics.Taken, true
	}
	return heuristics.NotTaken, true
}

type oracleAPHC struct {
	order []heuristics.Heuristic
	cfg   heuristics.Config
}

func (a oracleAPHC) PredictSite(s *features.Site) (heuristics.Prediction, bool) {
	p, _, ok := a.predictWith(s)
	return p, ok
}

func (a oracleAPHC) predictWith(s *features.Site) (heuristics.Prediction, heuristics.Heuristic, bool) {
	for _, h := range a.order {
		if p := oracleApply(h, s, a.cfg); p != heuristics.None {
			return p, h, true
		}
	}
	return heuristics.None, 0, false
}

type oracleDSHC struct {
	prob [heuristics.NumHeuristics]float64
}

func (d oracleDSHC) takenProbability(s *features.Site) (float64, bool) {
	pTaken, pNot := 1.0, 1.0
	applied := false
	for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
		pred := oracleApply(h, s, heuristics.Config{})
		if pred == heuristics.None {
			continue
		}
		applied = true
		p := d.prob[h]
		if pred == heuristics.Taken {
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

func (d oracleDSHC) PredictSite(s *features.Site) (heuristics.Prediction, bool) {
	p, ok := d.takenProbability(s)
	if !ok {
		return heuristics.None, false
	}
	if p > 0.5 {
		return heuristics.Taken, true
	}
	if p < 0.5 {
		return heuristics.NotTaken, true
	}
	return heuristics.None, false
}

type oraclePerfect struct{ prof *interp.Profile }

func (p oraclePerfect) PredictSite(s *features.Site) (heuristics.Prediction, bool) {
	c := p.prof.Branches[s.Ref]
	if c == nil || c.Executed == 0 {
		return heuristics.NotTaken, true
	}
	if 2*c.Taken > c.Executed {
		return heuristics.Taken, true
	}
	return heuristics.NotTaken, true
}

type oracleFixed struct{ dir heuristics.Prediction }

func (f oracleFixed) PredictSite(*features.Site) (heuristics.Prediction, bool) { return f.dir, true }

func oracleMissRate(ps *features.ProgramSites, prof *interp.Profile, p sitePredictor) float64 {
	var miss, total float64
	for _, s := range ps.Sites {
		c := prof.Branches[s.Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		total += float64(c.Executed)
		pred, ok := p.PredictSite(s)
		switch {
		case !ok || pred == heuristics.None:
			miss += float64(0.5 * float64(c.Executed))
		case pred == heuristics.Taken:
			miss += float64(c.Executed - c.Taken)
		default:
			miss += float64(c.Taken)
		}
	}
	if total == 0 {
		return 0
	}
	return miss / total
}

func oracleMisses(pred heuristics.Prediction, c *interp.BranchCount) int64 {
	if pred == heuristics.Taken {
		return c.Executed - c.Taken
	}
	return c.Taken
}

func oraclePerHeuristic(ps *features.ProgramSites, prof *interp.Profile) [heuristics.NumHeuristics]heuristics.HeuristicStats {
	var out [heuristics.NumHeuristics]heuristics.HeuristicStats
	var total int64
	for _, s := range ps.Sites {
		c := prof.Branches[s.Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		total += c.Executed
		isLoop := oracleApply(heuristics.LoopBranch, s, heuristics.Config{}) != heuristics.None
		for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
			if (h == heuristics.LoopBranch) != isLoop {
				continue
			}
			pred := oracleApply(h, s, heuristics.Config{})
			if pred == heuristics.None {
				continue
			}
			out[h].Covered += c.Executed
			out[h].Missed += oracleMisses(pred, c)
		}
	}
	for h := range out {
		out[h].Heuristic = heuristics.Heuristic(h)
		out[h].TotalExec = total
	}
	return out
}

func oracleBreakdownOf(ps *features.ProgramSites, prof *interp.Profile, a oracleAPHC) heuristics.Breakdown {
	var b heuristics.Breakdown
	for _, s := range ps.Sites {
		c := prof.Branches[s.Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		if pred := oracleApply(heuristics.LoopBranch, s, heuristics.Config{}); pred != heuristics.None {
			b.LoopExec += c.Executed
			b.LoopMissed += oracleMisses(pred, c)
			continue
		}
		b.NonLoopExec += c.Executed
		pred, _, ok := a.predictWith(s)
		if !ok {
			continue
		}
		b.Covered += c.Executed
		b.CoveredMissed += oracleMisses(pred, c)
	}
	return b
}

func oracleOutcomes(ps *features.ProgramSites, prof *interp.Profile, p sitePredictor) []heuristics.SiteOutcome {
	out := make([]heuristics.SiteOutcome, 0, len(ps.Sites))
	for _, s := range ps.Sites {
		c := prof.Branches[s.Ref]
		if c == nil {
			c = &interp.BranchCount{}
		}
		pred, ok := p.PredictSite(s)
		out = append(out, heuristics.SiteOutcome{
			Ref: s.Ref, Pred: pred, Covered: ok,
			Executed: c.Executed, Taken: c.Taken,
		})
	}
	return out
}
