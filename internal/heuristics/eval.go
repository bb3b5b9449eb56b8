package heuristics

import (
	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
)

// MissRate returns the dynamic misprediction rate of a predictor over a
// program, given its sites' vectors and evidence in site order and its
// profile: mispredicted branch executions divided by total conditional
// branch executions. Branches the predictor declines are charged the
// expected 50% miss of a uniform random prediction, matching the paper's
// treatment of branches no heuristic covers.
func MissRate(vecs []features.Vector, ev []Evidence, prof *interp.Profile, p Predictor) float64 {
	var miss, total float64
	for i := range vecs {
		c := prof.Branches[vecs[i].Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		total += float64(c.Executed)
		miss += siteMisses(&vecs[i], &ev[i], c, p)
	}
	if total == 0 {
		return 0
	}
	return miss / total
}

// siteMisses returns the (possibly fractional, for random defaults) number
// of mispredicted executions of one branch site.
func siteMisses(v *features.Vector, ev *Evidence, c *interp.BranchCount, p Predictor) float64 {
	switch direction(p.Prob(v, ev)) {
	case None:
		return 0.5 * float64(c.Executed)
	case Taken:
		return float64(c.Executed - c.Taken)
	}
	return float64(c.Taken)
}

// HeuristicStats reports how one heuristic performed on one program.
type HeuristicStats struct {
	Heuristic Heuristic
	// Covered is the number of dynamic branch executions where the
	// heuristic applied.
	Covered int64
	// Missed is the number of those executions it mispredicted.
	Missed int64
	// TotalExec is the program's total conditional branch executions.
	TotalExec int64
}

// MissRate returns the heuristic's miss rate over its covered executions.
func (h HeuristicStats) MissRate() float64 {
	if h.Covered == 0 {
		return 0
	}
	return float64(h.Missed) / float64(h.Covered)
}

// CoverageFraction returns the fraction of all executions it covered.
func (h HeuristicStats) CoverageFraction() float64 {
	if h.TotalExec == 0 {
		return 0
	}
	return float64(h.Covered) / float64(h.TotalExec)
}

// PerHeuristic measures each heuristic in isolation on one program — the
// data behind Table 6. Following Ball and Larus, the Loop Branch heuristic
// is measured on loop branches and the other heuristics on the remaining
// (non-loop) branches only.
func PerHeuristic(vecs []features.Vector, ev []Evidence, prof *interp.Profile) [NumHeuristics]HeuristicStats {
	var out [NumHeuristics]HeuristicStats
	var total int64
	for i := range vecs {
		c := prof.Branches[vecs[i].Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		total += c.Executed
		isLoop := ev[i][LoopBranch] != None
		for h, pred := range ev[i] {
			if (h == int(LoopBranch)) != isLoop {
				continue
			}
			if pred == None {
				continue
			}
			out[h].Covered += c.Executed
			if pred == Taken {
				out[h].Missed += c.Executed - c.Taken
			} else {
				out[h].Missed += c.Taken
			}
		}
	}
	for h := range out {
		out[h].Heuristic = Heuristic(h)
		out[h].TotalExec = total
	}
	return out
}

// Breakdown is the per-program decomposition of Table 5: loop versus
// non-loop branches, heuristic coverage of the non-loop branches, and the
// miss rates with and without the random default.
type Breakdown struct {
	// LoopExec/LoopMissed cover branches where the Loop Branch heuristic
	// applies.
	LoopExec   int64
	LoopMissed int64
	// NonLoopExec counts the remaining branch executions; Covered counts
	// those predicted by some non-loop heuristic, with CoveredMissed of
	// them mispredicted. The uncovered remainder is charged 50%.
	NonLoopExec   int64
	Covered       int64
	CoveredMissed int64
}

// LoopMissRate is the loop-branch miss rate (Table 5 column 1).
func (b Breakdown) LoopMissRate() float64 {
	if b.LoopExec == 0 {
		return 0
	}
	return float64(b.LoopMissed) / float64(b.LoopExec)
}

// PctNonLoop is the percentage of dynamic branches that are non-loop
// branches (column 2).
func (b Breakdown) PctNonLoop() float64 {
	total := b.LoopExec + b.NonLoopExec
	if total == 0 {
		return 0
	}
	return 100 * float64(b.NonLoopExec) / float64(total)
}

// PctCovered is the percentage of non-loop executions some heuristic
// predicts (column 3).
func (b Breakdown) PctCovered() float64 {
	if b.NonLoopExec == 0 {
		return 0
	}
	return 100 * float64(b.Covered) / float64(b.NonLoopExec)
}

// MissForHeuristics is the miss rate on covered non-loop branches (col 4).
func (b Breakdown) MissForHeuristics() float64 {
	if b.Covered == 0 {
		return 0
	}
	return float64(b.CoveredMissed) / float64(b.Covered)
}

// MissWithDefault is the non-loop miss rate including the 50% random default
// on uncovered branches (column 5).
func (b Breakdown) MissWithDefault() float64 {
	if b.NonLoopExec == 0 {
		return 0
	}
	return (float64(b.CoveredMissed) + float64(0.5*float64(b.NonLoopExec-b.Covered))) /
		float64(b.NonLoopExec)
}

// OverallMissRate combines loop and non-loop branches (column 6).
func (b Breakdown) OverallMissRate() float64 {
	total := b.LoopExec + b.NonLoopExec
	if total == 0 {
		return 0
	}
	miss := float64(b.LoopMissed) + float64(b.CoveredMissed) +
		float64(0.5*float64(b.NonLoopExec-b.Covered))
	return miss / float64(total)
}

// BreakdownOf computes the Table 5 decomposition for one program under the
// given APHC order.
func BreakdownOf(vecs []features.Vector, ev []Evidence, prof *interp.Profile, a *APHC) Breakdown {
	var b Breakdown
	for i := range vecs {
		c := prof.Branches[vecs[i].Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		if pred := ev[i][LoopBranch]; pred != None {
			b.LoopExec += c.Executed
			b.LoopMissed += missesOf(pred, c)
			continue
		}
		b.NonLoopExec += c.Executed
		pred, _, ok := a.PredictWith(&ev[i])
		if !ok {
			continue
		}
		b.Covered += c.Executed
		b.CoveredMissed += missesOf(pred, c)
	}
	return b
}

func missesOf(pred Prediction, c *interp.BranchCount) int64 {
	if pred == Taken {
		return c.Executed - c.Taken
	}
	return c.Taken
}

// SiteOutcome records a single site's prediction result, used by tests and
// by the espbench detail dumps.
type SiteOutcome struct {
	Ref      ir.BranchRef
	Pred     Prediction
	Covered  bool
	Executed int64
	Taken    int64
}

// Outcomes evaluates a predictor site by site.
func Outcomes(vecs []features.Vector, ev []Evidence, prof *interp.Profile, p Predictor) []SiteOutcome {
	out := make([]SiteOutcome, 0, len(vecs))
	for i := range vecs {
		c := prof.Branches[vecs[i].Ref]
		if c == nil {
			c = &interp.BranchCount{}
		}
		pred := direction(p.Prob(&vecs[i], &ev[i]))
		out = append(out, SiteOutcome{
			Ref: vecs[i].Ref, Pred: pred, Covered: pred != None,
			Executed: c.Executed, Taken: c.Taken,
		})
	}
	return out
}
