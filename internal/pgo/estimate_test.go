package pgo

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// estSrc: main runs a 10-trip loop calling f each iteration; f has a
// mostly-false error test. Known structure for checking propagation.
const estSrc = `
int f(int x) {
	if (x < 0) {
		return 0 - x;
	}
	return x;
}
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) {
		s = s + f(i);
	}
	return s;
}
`

func compileEst(t *testing.T, src string) (*ir.Program, *features.ProgramSites) {
	t.Helper()
	ast, err := minic.Parse("est", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return prog, features.Collect(prog)
}

func TestEstimateMeasuredMatchesRealCounts(t *testing.T) {
	prog, ps := compileEst(t, estSrc)
	prof, err := interp.Run(prog, interp.Config{CollectEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateProfile(prog, features.ExtractAll(ps), heuristics.EvidenceOf(ps), &Measured{Prof: prof})

	if got := est.Weight["main"]; got != 1 {
		t.Fatalf("main weight = %v, want 1", got)
	}
	// f is called ten times from a loop whose continue probability the
	// perfect source measures as 10/11 ≈ 0.909 < the 0.95 cap, so the
	// estimated activation count should land near the true 10.
	if got, want := est.Weight["f"], float64(prof.Calls["f"]); math.Abs(got-want) > 0.25*want {
		t.Fatalf("f weight = %v, want within 25%% of measured %v", got, want)
	}
	// The loop body must be amplified well above the entry frequency.
	fn := prog.FuncByName("main")
	var maxFreq float64
	for _, b := range fn.Blocks {
		if f := est.Local["main"][b.ID]; f > maxFreq {
			maxFreq = f
		}
	}
	if maxFreq < 5 {
		t.Fatalf("loop body frequency %v; want amplification over entry=1", maxFreq)
	}
}

func TestEstimateUniformBoundedAndComplete(t *testing.T) {
	prog, ps := compileEst(t, estSrc)
	est := EstimateProfile(prog, features.ExtractAll(ps), heuristics.EvidenceOf(ps), Uniform{})
	if est.Source != "uniform" {
		t.Fatalf("source = %q", est.Source)
	}
	for _, s := range ps.Sites {
		p, ok := est.Prob[s.Ref]
		if !ok {
			t.Fatalf("site %v missing a probability", s.Ref)
		}
		if p != 0.5 {
			t.Fatalf("uniform prob = %v", p)
		}
	}
	for _, fn := range prog.Funcs {
		if est.Weight[fn.Name] < 0 {
			t.Fatalf("negative weight for %s", fn.Name)
		}
		for id, f := range est.Local[fn.Name] {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
				t.Fatalf("%s block %d frequency %v", fn.Name, id, f)
			}
		}
	}
}

// TestEstimateRecursionBounded: a recursive function must not overflow the
// call-weight fixpoint.
func TestEstimateRecursionBounded(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}
int main() {
	return fib(10);
}
`
	prog, ps := compileEst(t, src)
	est := EstimateProfile(prog, features.ExtractAll(ps), heuristics.EvidenceOf(ps), Uniform{})
	w := est.Weight["fib"]
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		t.Fatalf("fib weight = %v", w)
	}
	if w > maxCallWeight {
		t.Fatalf("fib weight %v exceeds cap %v", w, maxCallWeight)
	}
}

func TestBuildPlanGatesOnThresholds(t *testing.T) {
	ast, err := minic.Parse("plan", `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 100; i = i + 1) {
		if (s < i) {
			s = s + 2;
		}
	}
	if (s > 1000000) {
		s = 0;
	}
	return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, meta, err := codegen.CompilePlanned(ast, ir.LangC, codegen.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := features.Collect(prog)
	prof, err := interp.Run(prog, interp.Config{CollectEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateProfile(prog, features.ExtractAll(ps), heuristics.EvidenceOf(ps), &Measured{Prof: prof})
	plan := BuildPlan(meta, est, DefaultOptions())

	hotLoop := minic.Pos{Line: 6, Col: 2}
	var loopPos []minic.Pos
	for _, o := range meta.Branch {
		if o.Loop {
			loopPos = append(loopPos, o.Pos)
		}
	}
	if len(loopPos) == 0 {
		t.Fatal("no loop origins recorded")
	}
	foundHot := false
	for _, pos := range loopPos {
		if pos.Line == hotLoop.Line {
			foundHot = true
			if !plan.Unroll(pos) {
				t.Fatalf("hot 100-trip loop at %v not approved for unrolling", pos)
			}
			if !plan.Cmov(pos) {
				t.Fatalf("hot position %v not approved for cmov", pos)
			}
		}
	}
	if !foundHot {
		t.Fatalf("loop at line %d not in meta; have %v", hotLoop.Line, loopPos)
	}
	// The once-executed trailing if must stay cold for both transforms.
	coldIf := false
	for _, o := range meta.Branch {
		if o.Pos.Line == 11 && !o.Loop {
			coldIf = true
			if plan.Cmov(o.Pos) {
				t.Fatalf("once-run if at %v approved for cmov", o.Pos)
			}
			if plan.Unroll(o.Pos) {
				t.Fatalf("non-loop position %v approved for unrolling", o.Pos)
			}
		}
	}
	if !coldIf {
		t.Fatal("trailing if at line 11 not recorded in meta")
	}
}
