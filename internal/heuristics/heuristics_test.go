package heuristics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// analyze compiles a MinC program and collects its branch sites.
func analyze(t *testing.T, src string) *features.ProgramSites {
	t.Helper()
	ast, err := minic.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return features.Collect(prog)
}

// sitesIn filters sites by function.
func sitesIn(ps *features.ProgramSites, fn string) []*features.Site {
	var out []*features.Site
	for _, s := range ps.Sites {
		if s.Ref.Func == fn {
			out = append(out, s)
		}
	}
	return out
}

// predictions applies one heuristic to every site of a function.
func predictions(ps *features.ProgramSites, fn string, h Heuristic) []Prediction {
	var out []Prediction
	for _, s := range sitesIn(ps, fn) {
		out = append(out, Apply(h, s, Config{}))
	}
	return out
}

func TestLoopBranchHeuristic(t *testing.T) {
	ps := analyze(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) { s = s + i; }
	return s;
}`)
	preds := predictions(ps, "main", LoopBranch)
	// Exactly one branch (the bottom test) is a loop branch, predicted
	// taken (back edge into the body).
	taken := 0
	for _, p := range preds {
		if p == Taken {
			taken++
		} else if p != None {
			t.Errorf("unexpected loop-branch prediction %v", p)
		}
	}
	if taken != 1 {
		t.Errorf("%d loop branches predicted taken, want 1", taken)
	}
}

func TestLoopExitHeuristicOnBreak(t *testing.T) {
	ps := analyze(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 100; i = i + 1) {
		s = s + i;
		if (s > 50) { break; }
	}
	return s;
}`)
	// The break test is inside the loop, neither successor is a loop head,
	// and the break edge exits: Loop Exit must fire on it.
	found := false
	for _, s := range sitesIn(ps, "main") {
		if Apply(LoopBranch, s, Config{}) != None {
			continue
		}
		if p := Apply(LoopExit, s, Config{}); p != None {
			found = true
			// The exiting edge must be predicted not taken: taken direction
			// depends on codegen polarity, so check via the site's edges.
			exitTaken := s.G.IsLoopExitEdge(s.BlockIdx, s.TakenIdx)
			if exitTaken && p != NotTaken || !exitTaken && p != Taken {
				t.Errorf("Loop Exit predicted the exiting edge taken")
			}
		}
	}
	if !found {
		t.Error("Loop Exit heuristic never applied to the break test")
	}
}

func TestPointerHeuristic(t *testing.T) {
	ps := analyze(t, `
int g;
int* gp;
int main() {
	gp = &g;
	if (gp == null) { g = 1; }
	if (gp != null) { g = 2; }
	return g;
}`)
	sites := sitesIn(ps, "main")
	if len(sites) != 2 {
		t.Fatalf("got %d sites", len(sites))
	}
	// "gp == null" predicted false; "gp != null" predicted true. Check via
	// condition kind: prediction must make the equality fail.
	for _, s := range sites {
		p := Apply(Pointer, s, Config{})
		if p == None {
			t.Fatalf("Pointer heuristic did not apply to %v", s.Ref)
		}
		if s.Cond.Kind == features.CmpEq && p != NotTaken {
			t.Errorf("%v: ==null comparison predicted taken", s.Ref)
		}
		if s.Cond.Kind == features.CmpNe && p != Taken {
			t.Errorf("%v: !=null comparison predicted not-taken", s.Ref)
		}
	}
}

func TestOpcodeHeuristic(t *testing.T) {
	ps := analyze(t, `
int g;
int main() {
	int x;
	x = __input(0);
	if (x < 0) { g = 1; }
	if (x <= 0) { g = 2; }
	if (x == 9) { g = 3; }
	if (x > 5) { g = 4; }
	return g;
}`)
	sites := sitesIn(ps, "main")
	if len(sites) != 4 {
		t.Fatalf("got %d sites", len(sites))
	}
	// First three: the heuristic applies and predicts the condition false.
	for i := 0; i < 3; i++ {
		p := Apply(Opcode, sites[i], Config{})
		if p == None {
			t.Errorf("site %d: Opcode heuristic did not apply", i)
			continue
		}
		// Condition false means: whichever successor corresponds to the
		// source condition being true is avoided. Cond.Kind is relative to
		// taken, so "unlikely" kinds predict NotTaken.
		unlikely := map[features.CmpKind]bool{
			features.CmpLt: true, features.CmpLe: true, features.CmpEq: true,
		}
		want := Taken
		if unlikely[sites[i].Cond.Kind] {
			want = NotTaken
		}
		if p != want {
			t.Errorf("site %d: predicted %v, want %v (cond %v)", i, p, want, sites[i].Cond.Kind)
		}
	}
	// "x > 5" matches no Opcode pattern.
	if p := Apply(Opcode, sites[3], Config{}); p != None {
		t.Errorf("x > 5 must not trigger the Opcode heuristic, got %v", p)
	}
}

func TestReturnHeuristic(t *testing.T) {
	ps := analyze(t, `
int g;
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		return 1;
	}
	// The fall path does more work before returning, so only the then-arm
	// "contains a return" in the heuristic's sense.
	while (x < 10) { x = x + 1; }
	g = x;
	return 0;
}`)
	s := sitesIn(ps, "main")[0]
	p := Apply(Return, s, Config{})
	if p == None {
		t.Fatal("Return heuristic did not apply")
	}
	// The then-arm returns immediately; the else path also eventually
	// returns but not in its own first block. The heuristic avoids the
	// immediately-returning successor.
	thenIsTaken := s.G.Block(s.TakenIdx).Terminator() != nil &&
		s.G.Block(s.TakenIdx).Terminator().Op == ir.OpRet
	if thenIsTaken && p != NotTaken {
		t.Error("returning successor predicted taken")
	}
}

func TestCallHeuristicPolarity(t *testing.T) {
	ps := analyze(t, `
int helper() { return 1; }
int g;
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		g = helper();
	} else {
		g = x + 1;
	}
	return g;
}`)
	s := sitesIn(ps, "main")[0]
	std := Apply(Call, s, Config{})
	flipped := Apply(Call, s, Config{CallPredictsTaken: true})
	if std == None || flipped == None {
		t.Fatal("Call heuristic did not apply")
	}
	if std == flipped {
		t.Error("polarity knob must flip the Call prediction")
	}
}

func TestStoreHeuristicIgnoresStackStores(t *testing.T) {
	ps := analyze(t, `
int g;
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		g = 5;       // real store to a global
	} else {
		int y;
		y = x;       // only stack-frame traffic
		x = y + 1;
	}
	return x + g;
}`)
	s := sitesIn(ps, "main")[0]
	p := Apply(Store, s, Config{})
	if p == None {
		t.Fatal("Store heuristic did not apply")
	}
	// The successor with the global store is avoided; identify it.
	storeTaken := features.ContainsRealStore(s.G, s.TakenIdx)
	if storeTaken && p != NotTaken || !storeTaken && p != Taken {
		t.Errorf("Store heuristic predicted the storing successor (pred %v)", p)
	}
}

func TestGuardHeuristic(t *testing.T) {
	ps := analyze(t, `
int g;
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		g = x * 2;   // uses x before defining it
	}
	g = g + 1;
	return g;
}`)
	s := sitesIn(ps, "main")[0]
	if p := Apply(Guard, s, Config{}); p == None {
		t.Error("Guard heuristic did not apply to the guarded use")
	}
}

func TestBTFNT(t *testing.T) {
	ps := analyze(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) { s = s + i; }
	if (s > 100) { s = 100; }
	return s;
}`)
	var back, fwd int
	vecs, ev := features.ExtractAll(ps), EvidenceOf(ps)
	for i, s := range ps.Sites {
		if s.Ref.Func != "main" {
			continue
		}
		p, ok := BTFNT{}.Predict(&vecs[i], &ev[i])
		if !ok {
			t.Fatal("BTFNT must always predict")
		}
		// A branch to its own block is backward: it ends the block and
		// jumps to the block's start.
		layout := s.Fn.Layout()
		backward := layout.Index(s.Branch.Target) <= layout.Index(s.Ref.Block)
		if backward {
			back++
			if p != Taken {
				t.Error("backward branch predicted not-taken")
			}
		} else {
			fwd++
			if p != NotTaken {
				t.Error("forward branch predicted taken")
			}
		}
	}
	if back == 0 || fwd == 0 {
		t.Errorf("test needs both directions: %d back, %d fwd", back, fwd)
	}
}

func TestAPHCOrderAndCoverage(t *testing.T) {
	ps := analyze(t, `
int g;
int* gp;
int main() {
	int i;
	gp = &g;
	for (i = 0; i < 10; i = i + 1) {
		if (gp != null) { g = g + 1; }
	}
	return g;
}`)
	a := NewAPHC()
	ev := EvidenceOf(ps)
	for i, s := range ps.Sites {
		if s.Ref.Func != "main" {
			continue
		}
		pred, h, ok := a.PredictWith(&ev[i])
		if !ok {
			continue
		}
		// Loop branches must be claimed by the Loop Branch heuristic, never
		// by later heuristics.
		if Apply(LoopBranch, s, Config{}) != None && h != LoopBranch {
			t.Errorf("loop branch claimed by %v", h)
		}
		if pred == None {
			t.Error("PredictWith returned ok with no prediction")
		}
	}
}

func TestDSHCCombination(t *testing.T) {
	d := NewDSHCBallLarus()
	// Combining p and 1-p yields 0.5 (neutral evidence cancels).
	comb := func(ps []float64) float64 {
		pt, pn := 1.0, 1.0
		for _, p := range ps {
			pt *= p
			pn *= 1 - p
		}
		return pt / (pt + pn)
	}
	if got := comb([]float64{0.8, 0.2}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("opposing evidence = %g, want 0.5", got)
	}
	// Agreeing evidence strengthens.
	if got := comb([]float64{0.8, 0.8}); got <= 0.8 {
		t.Errorf("agreeing evidence %g must exceed 0.8", got)
	}
	_ = d
}

// TestDSHCProperties checks algebraic properties of the Dempster-Shafer
// combination with testing/quick: commutativity and boundedness.
func TestDSHCProperties(t *testing.T) {
	comb := func(a, b float64) float64 {
		pt := float64(a * b)
		pn := float64((1 - a) * (1 - b))
		if pt+pn == 0 {
			return 0.5
		}
		return pt / (pt + pn)
	}
	clamp := func(x float64) float64 {
		x = math.Abs(x)
		x = x - math.Floor(x) // (0,1)
		return 0.01 + float64(0.98*x)
	}
	f := func(a, b, c float64) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		// Commutative.
		if math.Abs(comb(a, b)-comb(b, a)) > 1e-12 {
			return false
		}
		// Associative (within float tolerance).
		if math.Abs(comb(comb(a, b), c)-comb(a, comb(b, c))) > 1e-9 {
			return false
		}
		// 0.5 is the identity.
		if math.Abs(comb(a, 0.5)-a) > 1e-12 {
			return false
		}
		// Bounded.
		v := comb(a, b)
		return v > 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDSHCClamping(t *testing.T) {
	var miss [NumHeuristics]float64
	miss[Pointer] = 0 // perfect heuristic would veto everything
	miss[Store] = 1   // hopeless heuristic
	d := NewDSHCFromMiss("t", miss)
	if d.Prob[Pointer] > 0.99 || d.Prob[Store] < 0.01 {
		t.Error("probabilities must be clamped away from 0 and 1")
	}
}

func TestPerfectPredictor(t *testing.T) {
	ps := analyze(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 3 == 0) { s = s + 1; }
	}
	return s;
}`)
	prog := ps.Prog
	prof, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	perfect := &Perfect{Prof: prof}
	vecs, ev := features.ExtractAll(ps), EvidenceOf(ps)
	miss := MissRate(vecs, ev, prof, perfect)
	// Perfect static prediction: per-branch miss = min(taken, not)/exec;
	// no predictor can beat it.
	for _, other := range []Predictor{BTFNT{}, NewAPHC(), NewDSHCBallLarus()} {
		if m := MissRate(vecs, ev, prof, other); m < miss-1e-12 {
			t.Errorf("%s (%.3f) beat perfect (%.3f)", other.Name(), m, miss)
		}
	}
}

func TestMissRateArithmetic(t *testing.T) {
	ps := analyze(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 4; i = i + 1) { s = s + i; }
	return s;
}`)
	prof, err := interp.Run(ps.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed taken vs fixed not-taken must sum to 1 over branch executions.
	vecs, ev := features.ExtractAll(ps), EvidenceOf(ps)
	mt := MissRate(vecs, ev, prof, Fixed{Direction: Taken})
	mn := MissRate(vecs, ev, prof, Fixed{Direction: NotTaken})
	if math.Abs(mt+mn-1) > 1e-12 {
		t.Errorf("fixed-direction misses sum to %g, want 1", mt+mn)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	ps := analyze(t, `
int g;
int main() {
	int i;
	for (i = 0; i < 20; i = i + 1) {
		if (i % 2 == 0) { g = g + 1; }
		if (g > 100) { break; }
	}
	return g;
}`)
	prof, err := interp.Run(ps.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAPHC()
	b := BreakdownOf(features.ExtractAll(ps), EvidenceOf(ps), prof, a)
	if b.LoopExec+b.NonLoopExec != prof.CondExec {
		t.Errorf("breakdown misses executions: %d + %d != %d",
			b.LoopExec, b.NonLoopExec, prof.CondExec)
	}
	if b.Covered > b.NonLoopExec {
		t.Error("covered exceeds non-loop executions")
	}
	if b.PctNonLoop() < 0 || b.PctNonLoop() > 100 ||
		b.PctCovered() < 0 || b.PctCovered() > 100 {
		t.Error("percentages out of range")
	}
	overall := b.OverallMissRate()
	if overall < 0 || overall > 1 {
		t.Errorf("overall miss %g out of range", overall)
	}
}

func TestHeuristicNames(t *testing.T) {
	seen := map[string]bool{}
	for _, h := range AllHeuristics() {
		n := h.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("heuristic %d has bad name %q", h, n)
		}
		seen[n] = true
	}
	if Heuristic(99).String() != "unknown" {
		t.Error("out-of-range heuristic must render as unknown")
	}
}
