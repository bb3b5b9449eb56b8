package heuristics_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
)

// diffProgram is one analyzed program in both forms: its sites for the
// oracles, its vectors and evidence for the predictors.
type diffProgram struct {
	name string
	ps   *features.ProgramSites
	vecs []features.Vector
	ev   []heuristics.Evidence
	prof *interp.Profile
}

// diffPrograms analyzes the 46 corpus programs and one generated program
// per mix under tgt.
func diffPrograms(t *testing.T, tgt codegen.Target) []diffProgram {
	t.Helper()
	entries := corpus.All()
	for _, mix := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Generate(1, mix).Entry())
	}
	out := make([]diffProgram, 0, len(entries))
	for _, e := range entries {
		prog, err := e.Compile(tgt)
		if err != nil {
			t.Fatalf("%s under %s: %v", e.Name, tgt.Name, err)
		}
		prof, err := interp.Run(prog, e.RunConfig())
		if err != nil {
			t.Fatalf("%s under %s: %v", e.Name, tgt.Name, err)
		}
		ps := features.Collect(prog)
		out = append(out, diffProgram{e.Name, ps, features.ExtractAll(ps), heuristics.EvidenceOf(ps), prof})
	}
	return out
}

// TestPredictorsMatchSiteOracles: every predictor over (vectors, evidence,
// profile) gives bit-identical miss rates and identical per-site outcomes
// to its site-walking oracle, and PerHeuristic and BreakdownOf equal
// theirs, on the corpus and generated programs under every target.
func TestPredictorsMatchSiteOracles(t *testing.T) {
	for _, tgt := range append([]codegen.Target{codegen.Default, codegen.MIPSCC}, codegen.Compilers...) {
		progs := diffPrograms(t, tgt)
		// DSHC(Ours) takes its rates from this target's corpus, as Table 4
		// does.
		var cov, missed [heuristics.NumHeuristics]int64
		for _, p := range progs {
			per := oraclePerHeuristic(p.ps, p.prof)
			if got := heuristics.PerHeuristic(p.vecs, p.ev, p.prof); got != per {
				t.Fatalf("%s/%s: PerHeuristic %+v, oracle %+v", tgt.Name, p.name, got, per)
			}
			for h := range per {
				cov[h] += per[h].Covered
				missed[h] += per[h].Missed
			}
		}
		var rates [heuristics.NumHeuristics]float64
		for h := range rates {
			rates[h] = 0.5
			if cov[h] > 0 {
				rates[h] = float64(missed[h]) / float64(cov[h])
			}
		}
		bl, ours := heuristics.NewDSHCBallLarus(), heuristics.NewDSHCFromMiss(rates)
		flipped := heuristics.Config{CallPredictsTaken: true}
		for _, p := range progs {
			aphcFlipped := &heuristics.APHC{Order: heuristics.DefaultOrder, Cfg: flipped}
			pairs := []struct {
				got  heuristics.Predictor
				want sitePredictor
			}{
				{heuristics.BTFNT{}, oracleBTFNT{}},
				{heuristics.NewAPHC(), oracleAPHC{order: heuristics.DefaultOrder}},
				{aphcFlipped, oracleAPHC{order: heuristics.DefaultOrder, cfg: flipped}},
				{bl, oracleDSHC{prob: bl.HitRate}},
				{ours, oracleDSHC{prob: ours.HitRate}},
				{&heuristics.Perfect{Prof: p.prof}, oraclePerfect{p.prof}},
				{heuristics.Fixed{Direction: heuristics.Taken}, oracleFixed{heuristics.Taken}},
				{heuristics.Fixed{Direction: heuristics.NotTaken}, oracleFixed{heuristics.NotTaken}},
			}
			for k, pair := range pairs {
				got := heuristics.MissRate(p.vecs, p.ev, p.prof, pair.got)
				want := oracleMissRate(p.ps, p.prof, pair.want)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: predictor %d miss %v, oracle %v", tgt.Name, p.name, k, got, want)
				}
				if got, want := heuristics.Outcomes(p.vecs, p.ev, p.prof, pair.got), oracleOutcomes(p.ps, p.prof, pair.want); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: predictor %d outcomes differ from the oracle's", tgt.Name, p.name, k)
				}
			}
			for i, s := range p.ps.Sites {
				for k, d := range []*heuristics.DSHC{bl, ours} {
					got, gotOK := d.Prob(&p.vecs[i], &p.ev[i])
					want, wantOK := oracleDSHC{prob: d.HitRate}.takenProbability(s)
					// The oracle reports whether any heuristic applied;
					// Prob also declines an exact tie.
					if math.Float64bits(got) != math.Float64bits(want) || gotOK != (wantOK && want != 0.5) {
						t.Fatalf("%s/%s %s: DSHC %d probability %v %v, oracle %v %v", tgt.Name, p.name, s.Ref, k, got, gotOK, want, wantOK)
					}
				}
			}
			for _, a := range []*heuristics.APHC{heuristics.NewAPHC(), aphcFlipped} {
				got := heuristics.BreakdownOf(p.vecs, p.ev, p.prof, a)
				if want := oracleBreakdownOf(p.ps, p.prof, oracleAPHC{order: a.Order, cfg: a.Cfg}); got != want {
					t.Fatalf("%s/%s: breakdown %+v, oracle %+v", tgt.Name, p.name, got, want)
				}
			}
		}
	}
}

// TestEvidenceMatchesApply: a site's evidence is Apply under Config{}, and
// read under CallPredictsTaken (APHC's Cfg) it is the oracle's Apply under
// that configuration, heuristic by heuristic.
func TestEvidenceMatchesApply(t *testing.T) {
	for _, tgt := range append([]codegen.Target{codegen.Default, codegen.MIPSCC}, codegen.Compilers...) {
		for _, p := range diffPrograms(t, tgt) {
			if len(p.ev) != len(p.ps.Sites) {
				t.Fatalf("%s: %d verdict arrays for %d sites", p.name, len(p.ev), len(p.ps.Sites))
			}
			for i, s := range p.ps.Sites {
				for _, cfg := range []heuristics.Config{{}, {CallPredictsTaken: true}} {
					// A one-heuristic APHC reads the evidence under cfg.
					for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
						a := &heuristics.APHC{Order: []heuristics.Heuristic{h}, Cfg: cfg}
						got, _, _ := a.PredictWith(&p.ev[i])
						if want := oracleApply(h, s, cfg); got != want {
							t.Fatalf("%s/%s %s: %s under %+v: evidence %s, oracle %s", tgt.Name, p.name, s.Ref, h, cfg, got, want)
						}
						if want := heuristics.Apply(h, s, cfg); got != want {
							t.Fatalf("%s/%s %s: %s under %+v: evidence %s, Apply %s", tgt.Name, p.name, s.Ref, h, cfg, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTieRules pins the predictors' tie rules, which the goldens hold: a
// Dempster-Shafer combination of exactly 0.5 declines, and Perfect
// predicts a branch taken exactly half the time not-taken.
func TestTieRules(t *testing.T) {
	var miss [heuristics.NumHeuristics]float64
	for h := range miss {
		miss[h] = 0.3
	}
	d := heuristics.NewDSHCFromMiss(miss)
	var ev heuristics.Evidence
	ev[heuristics.Opcode], ev[heuristics.Return] = heuristics.Taken, heuristics.NotTaken
	v := features.Vector{Ref: ir.BranchRef{Func: "f", Block: 1}}
	if p, ok := d.Prob(&v, &ev); p != 0.5 || ok {
		t.Errorf("DSHC at exactly 0.5: %v %v, want a decline (0.5 false)", p, ok)
	}
	prof := &interp.Profile{Branches: map[ir.BranchRef]*interp.BranchCount{v.Ref: {Executed: 4, Taken: 2}}}
	if p, ok := (&heuristics.Perfect{Prof: prof}).Prob(&v, &ev); p > 0.5 || !ok {
		t.Errorf("Perfect on a half-taken branch: %v %v, want 0.5 true (not-taken)", p, ok)
	}
}
