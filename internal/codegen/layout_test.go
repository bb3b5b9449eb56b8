package codegen

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// layoutSrc exercises every fixup path of OptimizeLayout: a mostly-taken
// forward branch (inversion), an if/else diamond, a loop, and a rarely
// executed error arm (cold splitting).
const layoutSrc = `
int main() {
	int i;
	int s;
	int bad;
	s = 0;
	bad = 0;
	for (i = 0; i < 200; i = i + 1) {
		if (i != 100) {
			s = s + i;
		} else {
			bad = bad + 1;
			__print(bad);
		}
		if (s > 10000) {
			s = s - 7;
		}
	}
	__print(s);
	return s;
}
`

// measuredGuidance runs the program and converts its profile into
// EdgeGuidance: measured taken fractions plus per-invocation block
// frequencies derived from edge counts.
func measuredGuidance(t *testing.T, prog *ir.Program, cfg interp.Config) *EdgeGuidance {
	t.Helper()
	cfg.CollectEdges = true
	prof, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	g := &EdgeGuidance{
		Prob:      make(map[ir.BranchRef]float64),
		LocalFreq: make(map[string]map[int]float64),
	}
	for ref, c := range prof.Branches {
		if c.Executed > 0 {
			g.Prob[ref] = c.TakenFraction()
		}
	}
	for _, f := range prog.Funcs {
		calls := prof.Calls[f.Name]
		if calls == 0 {
			continue
		}
		m := make(map[int]float64)
		for i, b := range f.Blocks {
			var dyn int64
			if i == 0 {
				dyn = calls
			}
			for e, n := range prof.Edges {
				if e.Func == f.Name && e.To == b.ID {
					dyn += n
				}
			}
			m[b.ID] = float64(dyn) / float64(calls)
		}
		g.LocalFreq[f.Name] = m
	}
	return g
}

func TestOptimizeLayoutPreservesSemanticsAndSavesCycles(t *testing.T) {
	ast, err := minic.Parse("layout", layoutSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{CollectEdges: true}
	base, err := Compile(ast, ir.LangC, Default)
	if err != nil {
		t.Fatal(err)
	}
	baseProf, err := interp.Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseCycles, err := interp.CycleCount(base, baseProf)
	if err != nil {
		t.Fatal(err)
	}

	opt, err := Compile(ast, ir.LangC, Default)
	if err != nil {
		t.Fatal(err)
	}
	guide := measuredGuidance(t, opt, interp.Config{})
	OptimizeLayout(opt, guide, LayoutOptions{SplitCold: true, ColdBelow: 0.01})
	if err := opt.Verify(); err != nil {
		t.Fatalf("layout produced invalid IR: %v", err)
	}
	optProf, err := interp.Run(opt, cfg)
	if err != nil {
		t.Fatalf("optimized run: %v\n%s", err, opt.Disassemble())
	}
	if !reflect.DeepEqual(optProf.Outputs, baseProf.Outputs) ||
		!reflect.DeepEqual(optProf.FOutputs, baseProf.FOutputs) ||
		optProf.Result != baseProf.Result {
		t.Fatalf("layout changed program behaviour: outputs %v vs %v, result %d vs %d",
			optProf.Outputs, baseProf.Outputs, optProf.Result, baseProf.Result)
	}
	optCycles, err := interp.CycleCount(opt, optProf)
	if err != nil {
		t.Fatal(err)
	}
	if optCycles >= baseCycles {
		t.Fatalf("perfect-profile layout did not save cycles: %d -> %d", baseCycles, optCycles)
	}
}

// unrollGateSrc has a hot high-trip loop (line 5) and a cold loop that runs
// twice (line 8). Guided unrolling must replicate only the hot body.
const unrollGateSrc = `int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 500; i = i + 1) { s = s + i; }
	s = s / 100;
	i = 0;
	for (i = 0; i < 2; i = i + 1) { s = s + 2 * i; }
	__print(s);
	return s;
}
`

func TestUnrollGateLeavesColdLoopAlone(t *testing.T) {
	ast, err := minic.Parse("unrollgate", unrollGateSrc)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Default
	tgt.Name = "unroll-test"
	tgt.UnrollLoops = 4

	sizeOf := func(plan *Plan) (int, *ir.Program) {
		prog, _, err := CompilePlanned(ast, ir.LangC, tgt, plan)
		if err != nil {
			t.Fatal(err)
		}
		return prog.NumInsns(), prog
	}
	noneSize, noneProg := sizeOf(&Plan{Unroll: func(minic.Pos) bool { return false }})
	hotSize, hotProg := sizeOf(&Plan{Unroll: func(pos minic.Pos) bool { return pos.Line == 5 }})
	allSize, allProg := sizeOf(nil)

	if !(noneSize < hotSize && hotSize < allSize) {
		t.Fatalf("unroll gating not selective: none=%d hot-only=%d all=%d insns",
			noneSize, hotSize, allSize)
	}
	// The gated compile must replicate exactly as much as the unconditional
	// one does for the hot loop: the delta of unrolling the cold loop too is
	// what staying cold saves.
	var results []int64
	var outputs [][]int64
	for _, prog := range []*ir.Program{noneProg, hotProg, allProg} {
		prof, err := interp.Run(prog, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, prof.Result)
		outputs = append(outputs, prof.Outputs)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("unroll gating changed results: %v", results)
	}
	if !reflect.DeepEqual(outputs[0], outputs[1]) || !reflect.DeepEqual(outputs[1], outputs[2]) {
		t.Fatalf("unroll gating changed outputs: %v", outputs)
	}
}

func TestCmovGate(t *testing.T) {
	src := `int main() {
	int x;
	int v;
	x = __input(0);
	v = 0;
	if (x > 3) { v = 7; }
	__print(v);
	return v;
}
`
	ast, err := minic.Parse("cmovgate", src)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Default
	tgt.Name = "cmov-test"
	tgt.UseCmov = true

	countCmov := func(plan *Plan) int {
		prog, _, err := CompilePlanned(ast, ir.LangC, tgt, plan)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Insns {
					if b.Insns[i].Op.Class() == ir.ClassCmov {
						n++
					}
				}
			}
		}
		return n
	}
	if got := countCmov(nil); got == 0 {
		t.Fatal("unconditional cmov target emitted no conditional moves")
	}
	if got := countCmov(&Plan{Cmov: func(minic.Pos) bool { return false }}); got != 0 {
		t.Fatalf("gated-off compile still emitted %d conditional moves", got)
	}
	if got := countCmov(&Plan{Cmov: func(pos minic.Pos) bool { return pos.Line == 6 }}); got == 0 {
		t.Fatal("selectively-enabled cmov was not applied")
	}
}

func TestCompilePlannedMetaRecordsLoops(t *testing.T) {
	ast, err := minic.Parse("meta", unrollGateSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := CompilePlanned(ast, ir.LangC, Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	loopLines := map[int]bool{}
	for _, o := range meta.Branch {
		if o.Loop {
			loopLines[o.Pos.Line] = true
		}
	}
	if !loopLines[5] || !loopLines[8] {
		t.Fatalf("loop bottom tests not recorded; loop origin lines: %v", loopLines)
	}
}
