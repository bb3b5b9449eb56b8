package heuristics_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
)

// Property tests of the one static-predictor contract: Prob returns a
// taken-probability p and whether the predictor applies; a predictor that
// declines returns exactly 0.5, and the direction a consumer reads from
// (p, ok) — taken when ok and p > 0.5, not-taken when ok otherwise, none
// when it declines — is the direction each predictor's rule names. The
// rules are written out here as direction rules, independently of the
// predictors' probabilities.

// contractDirection is the direction a consumer reads from (p, ok).
func contractDirection(p float64, ok bool) heuristics.Prediction {
	switch {
	case !ok:
		return heuristics.None
	case p > 0.5:
		return heuristics.Taken
	}
	return heuristics.NotTaken
}

// violation describes how one answer of a predictor breaks the contract,
// given the direction its rule names, or returns "".
func violation(p float64, ok bool, want heuristics.Prediction) string {
	switch {
	case !ok && math.Float64bits(p) != math.Float64bits(0.5):
		return fmt.Sprintf("declined with p = %v, want exactly 0.5", p)
	case ok && !(p >= 0 && p <= 1):
		return fmt.Sprintf("p = %v outside [0, 1]", p)
	case contractDirection(p, ok) != want:
		return fmt.Sprintf("(%v, %v) reads as %s, the rule says %s", p, ok, contractDirection(p, ok), want)
	}
	return ""
}

// ruleBTFNT: backward branches taken, forward not-taken.
func ruleBTFNT(v *features.Vector) heuristics.Prediction {
	if v.Values[features.FBrDirection] == "B" {
		return heuristics.Taken
	}
	return heuristics.NotTaken
}

// ruleAPHC: the first heuristic in order that applies, with the Call
// verdict swapped under CallPredictsTaken.
func ruleAPHC(a *heuristics.APHC, ev *heuristics.Evidence) heuristics.Prediction {
	for _, h := range a.Order {
		pred := ev[h]
		if h == heuristics.Call && a.Cfg.CallPredictsTaken && pred != heuristics.None {
			if pred == heuristics.Taken {
				pred = heuristics.NotTaken
			} else {
				pred = heuristics.Taken
			}
		}
		if pred != heuristics.None {
			return pred
		}
	}
	return heuristics.None
}

// ruleDSHC: the Dempster-Shafer combination of the applicable heuristics'
// hit rates, taken above 0.5 and not-taken below; no evidence or an exact
// tie declines.
func ruleDSHC(d *heuristics.DSHC, ev *heuristics.Evidence) heuristics.Prediction {
	pTaken, pNot := 1.0, 1.0
	applied := false
	for h, pred := range ev {
		switch pred {
		case heuristics.Taken:
			pTaken, pNot = pTaken*d.HitRate[h], pNot*(1-d.HitRate[h])
		case heuristics.NotTaken:
			pTaken, pNot = pTaken*(1-d.HitRate[h]), pNot*d.HitRate[h]
		default:
			continue
		}
		applied = true
	}
	if !applied {
		return heuristics.None
	}
	switch p := pTaken / (pTaken + pNot); {
	case p > 0.5:
		return heuristics.Taken
	case p < 0.5:
		return heuristics.NotTaken
	}
	return heuristics.None
}

// rulePerfect: the majority direction of the measured counts; a branch
// that never ran, or ran exactly half taken, is not-taken.
func rulePerfect(prof *interp.Profile, v *features.Vector) heuristics.Prediction {
	if c := prof.Branches[v.Ref]; c != nil && 2*c.Taken > c.Executed {
		return heuristics.Taken
	}
	return heuristics.NotTaken
}

// allEvidence returns every one of the 3^9 evidence arrays.
func allEvidence() []heuristics.Evidence {
	out := []heuristics.Evidence{{}}
	for h := 0; h < int(heuristics.NumHeuristics); h++ {
		next := make([]heuristics.Evidence, 0, 3*len(out))
		for _, ev := range out {
			for _, pred := range []heuristics.Prediction{heuristics.None, heuristics.Taken, heuristics.NotTaken} {
				ev[h] = pred
				next = append(next, ev)
			}
		}
		out = next
	}
	return out
}

// TestPredictorContract: BTFNT, APHC under both Call polarities, DSHC(B&L),
// DSHC(Ours), Perfect, ESP (a neural and a decision-tree model, whose
// leaves can read exactly 0.5) and Fixed in all three directions keep the
// contract on every site of the 46 corpus programs, and APHC and the
// DSHCs, with a third whose equal rates make ties, on all 3^9 evidence
// combinations. Outcomes reads each site's direction the same way.
func TestPredictorContract(t *testing.T) {
	var data []*core.ProgramData
	for _, e := range corpus.All() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		data = append(data, pd)
	}
	var cov, missed [heuristics.NumHeuristics]int64
	for _, pd := range data {
		for h, s := range heuristics.PerHeuristic(pd.Vectors, pd.Evidence(), pd.Profile) {
			cov[h] += s.Covered
			missed[h] += s.Missed
		}
	}
	var rates [heuristics.NumHeuristics]float64
	for h := range rates {
		rates[h] = 0.5
		if cov[h] > 0 {
			rates[h] = float64(missed[h]) / float64(cov[h])
		}
	}
	// Equal rates make opposed evidence tie exactly.
	var equal [heuristics.NumHeuristics]float64
	for h := range equal {
		equal[h] = 0.3
	}
	dshcs := []*heuristics.DSHC{heuristics.NewDSHCBallLarus(), heuristics.NewDSHCFromMiss(rates)}
	aphcs := []*heuristics.APHC{
		heuristics.NewAPHC(),
		{Order: heuristics.DefaultOrder, Cfg: heuristics.Config{CallPredictsTaken: true}},
	}
	models := []*core.Model{
		core.Train(data, core.Config{}),
		core.Train(data, core.Config{Classifier: core.DecisionTree}),
	}

	type ruled struct {
		name string
		pred heuristics.Predictor
		rule func(v *features.Vector, ev *heuristics.Evidence) heuristics.Prediction
	}
	var evidenceRuled []ruled
	for _, a := range aphcs {
		evidenceRuled = append(evidenceRuled, ruled{"APHC", a,
			func(_ *features.Vector, ev *heuristics.Evidence) heuristics.Prediction { return ruleAPHC(a, ev) }})
	}
	for _, d := range append(dshcs, heuristics.NewDSHCFromMiss(equal)) {
		evidenceRuled = append(evidenceRuled, ruled{"DSHC", d,
			func(_ *features.Vector, ev *heuristics.Evidence) heuristics.Prediction { return ruleDSHC(d, ev) }})
	}

	var v features.Vector
	for _, ev := range allEvidence() {
		for k, r := range evidenceRuled {
			p, ok := r.pred.Prob(&v, &ev)
			if msg := violation(p, ok, r.rule(&v, &ev)); msg != "" {
				t.Fatalf("%s %d on evidence %v: %s", r.name, k, ev, msg)
			}
		}
	}

	declines := 0
	for _, pd := range data {
		ruledHere := append([]ruled{
			{"BTFNT", heuristics.BTFNT{},
				func(v *features.Vector, _ *heuristics.Evidence) heuristics.Prediction { return ruleBTFNT(v) }},
			{"Perfect", &heuristics.Perfect{Prof: pd.Profile},
				func(v *features.Vector, _ *heuristics.Evidence) heuristics.Prediction {
					return rulePerfect(pd.Profile, v)
				}},
		}, evidenceRuled...)
		for _, m := range models {
			ruledHere = append(ruledHere, ruled{"ESP(" + m.Cfg.Classifier.String() + ")", &core.Predictor{Model: m},
				func(v *features.Vector, _ *heuristics.Evidence) heuristics.Prediction {
					if m.TakenProbability(*v) > 0.5 {
						return heuristics.Taken
					}
					return heuristics.NotTaken
				}})
		}
		for _, dir := range []heuristics.Prediction{heuristics.Taken, heuristics.NotTaken, heuristics.None} {
			ruledHere = append(ruledHere, ruled{"Fixed(" + dir.String() + ")", heuristics.Fixed{Direction: dir},
				func(*features.Vector, *heuristics.Evidence) heuristics.Prediction { return dir }})
		}
		ev := pd.Evidence()
		for _, r := range ruledHere {
			outcomes := heuristics.Outcomes(pd.Vectors, ev, pd.Profile, r.pred)
			for i := range pd.Vectors {
				want := r.rule(&pd.Vectors[i], &ev[i])
				p, ok := r.pred.Prob(&pd.Vectors[i], &ev[i])
				if msg := violation(p, ok, want); msg != "" {
					t.Fatalf("%s %s %s: %s", pd.Name, pd.Vectors[i].Ref, r.name, msg)
				}
				if !ok {
					declines++
				}
				if o := outcomes[i]; o.Pred != want || o.Covered != (want != heuristics.None) {
					t.Fatalf("%s %s %s: outcome %s covered %v, the rule says %s", pd.Name, pd.Vectors[i].Ref, r.name, o.Pred, o.Covered, want)
				}
			}
		}
	}
	if declines == 0 {
		t.Fatal("no predictor declined any corpus site")
	}
}
