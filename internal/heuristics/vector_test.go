package heuristics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
)

// vectorTestSites compiles a few corpus programs and returns their branch
// sites paired with extracted Table 2 vectors.
func vectorTestSites(t *testing.T) ([]*features.Site, []features.Vector) {
	t.Helper()
	var sites []*features.Site
	var vecs []features.Vector
	for _, name := range []string{"bc", "grep", "sort", "eqntott"} {
		e, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("no corpus entry %q", name)
		}
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		ps := features.Collect(prog)
		sites = append(sites, ps.Sites...)
		vecs = append(vecs, features.ExtractAll(ps)...)
	}
	if len(sites) < 100 {
		t.Fatalf("only %d sites collected", len(sites))
	}
	return sites, vecs
}

// TestVectorApplyMatchesSiteForExactHeuristics: the heuristics whose
// predicates the Table 2 vector stores verbatim must agree with the
// CFG-based forms on every branch of real compiled programs.
func TestVectorApplyMatchesSiteForExactHeuristics(t *testing.T) {
	sites, vecs := vectorTestSites(t)
	exact := []Heuristic{LoopBranch, Guard, LoopHeader, Call}
	for i, s := range sites {
		ev := VectorApply(&vecs[i])
		for _, h := range exact {
			if site := Apply(h, s, Config{}); site != ev[h] {
				t.Errorf("%s at %s: site=%s vector=%s", h, s.Ref, site, ev[h])
			}
		}
	}
}

// TestVectorApplyUnrecoverableNeverFire: Pointer and Store inspect state the
// vector does not carry; their vector forms must always decline rather than
// guess.
func TestVectorApplyUnrecoverableNeverFire(t *testing.T) {
	_, vecs := vectorTestSites(t)
	for i := range vecs {
		ev := VectorApply(&vecs[i])
		for _, h := range []Heuristic{Pointer, Store} {
			if ev[h] != None {
				t.Fatalf("%s fired on a vector: %s", h, ev[h])
			}
		}
	}
}

// TestDSHCVectorCoverageAndDeterminism: the Dempster-Shafer combination of
// vector evidence must cover a substantial share of real branches (it is
// the degraded-mode answer) and must be a pure function of the vector.
func TestDSHCVectorCoverageAndDeterminism(t *testing.T) {
	_, vecs := vectorTestSites(t)
	d := NewDSHCBallLarus()
	covered := 0
	for i := range vecs {
		ev1, ev2 := VectorApply(&vecs[i]), VectorApply(&vecs[i])
		p1, ok1 := d.Prob(&vecs[i], &ev1)
		p2, ok2 := d.Prob(&vecs[i], &ev2)
		if p1 != p2 || ok1 != ok2 {
			t.Fatalf("vector %d: nondeterministic answer", i)
		}
		if ok1 {
			covered++
			if p1 < 0 || p1 > 1 {
				t.Fatalf("vector %d: probability %v out of range", i, p1)
			}
		} else if p1 != 0.5 {
			t.Fatalf("vector %d: declined but probability %v != 0.5", i, p1)
		}
	}
	if frac := float64(covered) / float64(len(vecs)); frac < 0.5 {
		t.Fatalf("vector DSHC covers only %.0f%% of %d branches", 100*frac, len(vecs))
	}
}

// TestAPHCVectorFirstMatchOrder: APHC over vector evidence must respect the
// fixed order — a branch where Loop Branch applies must be decided by it
// even if later heuristics disagree.
func TestAPHCVectorFirstMatchOrder(t *testing.T) {
	_, vecs := vectorTestSites(t)
	a := NewAPHC()
	for i := range vecs {
		ev := VectorApply(&vecs[i])
		pred, h, ok := a.PredictWith(&ev)
		if !ok {
			continue
		}
		if pred == None {
			t.Fatalf("vector %d: applied with None prediction", i)
		}
		// The reported heuristic must itself produce the prediction.
		if ev[h] != pred {
			t.Fatalf("vector %d: reported %s=%s but its evidence says %s", i, h, pred, ev[h])
		}
		// And no earlier heuristic in the order may have applied.
		for _, earlier := range DefaultOrder {
			if earlier == h {
				break
			}
			if ev[earlier] != None {
				t.Fatalf("vector %d: %s fired but earlier %s also applies", i, h, earlier)
			}
		}
	}
}

// takenProbabilityFromVector is the oracle for the degraded-mode answer:
// the Dempster-Shafer loop over the heuristics' vector forms, written out
// separately from Evidence and DSHC.Prob. It reports whether any
// heuristic applied; DSHC.Prob also declines an exact tie.
func takenProbabilityFromVector(d *DSHC, v *features.Vector) (float64, bool) {
	pTaken, pNot := 1.0, 1.0
	applied := false
	for h := Heuristic(0); h < NumHeuristics; h++ {
		pred := vectorApply(h, v)
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
	if !applied {
		return 0.5, false
	}
	den := pTaken + pNot
	if den == 0 {
		return 0.5, true
	}
	return pTaken / den, true
}

// TestVectorCombinerMatchesOracle: the degraded answer, DSHC.Prob over
// VectorApply's evidence, is bit-identical to the oracle on every
// vector of the 46 corpus programs under every target, and on seeded
// random vectors that mix each feature's corpus values with values no
// table holds.
func TestVectorCombinerMatchesOracle(t *testing.T) {
	var vecs []features.Vector
	for _, tgt := range append([]codegen.Target{codegen.Default, codegen.MIPSCC}, codegen.Compilers...) {
		for _, e := range corpus.All() {
			prog, err := e.Compile(tgt)
			if err != nil {
				t.Fatalf("%s under %s: %v", e.Name, tgt.Name, err)
			}
			vecs = append(vecs, features.ExtractAll(features.Collect(prog))...)
		}
	}
	// Each feature's observed values, plus values outside every table.
	var vocab [features.NumFeatures][]string
	var seen [features.NumFeatures]map[string]bool
	for f := range vocab {
		vocab[f] = []string{"", features.Unknown, "bogus", "LBX", "rEtUrN"}
		seen[f] = map[string]bool{}
	}
	for _, v := range vecs {
		for f, val := range v.Values {
			if !seen[f][val] {
				seen[f][val] = true
				vocab[f] = append(vocab[f], val)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	corpusN := len(vecs)
	for n := 0; n < 20000; n++ {
		var v features.Vector
		for f := range v.Values {
			v.Values[f] = vocab[f][rng.Intn(len(vocab[f]))]
		}
		vecs = append(vecs, v)
	}
	var miss [NumHeuristics]float64
	for h := range miss {
		miss[h] = rng.Float64()
	}
	for k, d := range []*DSHC{NewDSHCBallLarus(), NewDSHCFromMiss(miss)} {
		for i := range vecs {
			ev := VectorApply(&vecs[i])
			got, gotOK := d.Prob(&vecs[i], &ev)
			want, wantOK := takenProbabilityFromVector(d, &vecs[i])
			if math.Float64bits(got) != math.Float64bits(want) || gotOK != (wantOK && want != 0.5) {
				t.Fatalf("DSHC %d, vector %d (corpus: %v) %q: got %v %v, oracle %v %v",
					k, i, i < corpusN, vecs[i].Values, got, gotOK, want, wantOK)
			}
		}
	}
}
