package experiments

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// Table7Row is espresso's heuristic decomposition under one compiler.
type Table7Row struct {
	Compiler string
	B        heuristics.Breakdown
	Perfect  float64
	Insns    int64
	// PctLoopBranches is the share of dynamic branches that are loop
	// branches — the quantity GEM's unrolling visibly reduces.
	PctLoopBranches float64
}

// Table7Result is the compiler-sensitivity study (Table 7 of the paper):
// one program under the four compiler configurations.
type Table7Result struct {
	Program string
	Rows    []Table7Row
}

// Table7Program is the paper's choice of program for the compiler study.
const Table7Program = "espresso"

// Table7 compiles espresso under each compiler configuration and
// decomposes the APHC heuristics' behaviour.
func Table7(ctx *Context) (*Table7Result, error) {
	e, ok := corpus.ByName(Table7Program)
	if !ok {
		return nil, fmt.Errorf("experiments: corpus has no %q", Table7Program)
	}
	res := &Table7Result{Program: e.Name}
	aphc := heuristics.NewAPHC()
	for _, tgt := range codegen.Compilers {
		pd, err := ctx.Data(e, tgt)
		if err != nil {
			return nil, err
		}
		b := heuristics.BreakdownOf(pd.Vectors, pd.Evidence(), pd.Profile, aphc)
		res.Rows = append(res.Rows, Table7Row{
			Compiler:        tgt.Name,
			B:               b,
			Perfect:         heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, &heuristics.Perfect{Prof: pd.Profile}),
			Insns:           pd.Profile.Insns,
			PctLoopBranches: 100 - b.PctNonLoop(),
		})
	}
	return res, nil
}

// Render formats the table in the paper's layout.
func (r *Table7Result) Render() string {
	t := stats.NewTable("Compiler", "% Loop Branches", "Loop Miss Rate", "% Non-Loop",
		"% Covered", "Miss For Heuristics", "Miss With Default", "Overall", "Perfect")
	for _, row := range r.Rows {
		t.Row(row.Compiler,
			stats.Pct1(row.PctLoopBranches/100),
			stats.Pct(row.B.LoopMissRate()),
			stats.Pct1(row.B.PctNonLoop()/100),
			stats.Pct1(row.B.PctCovered()/100),
			stats.Pct(row.B.MissForHeuristics()),
			stats.Pct(row.B.MissWithDefault()),
			stats.Pct(row.B.OverallMissRate()),
			stats.Pct(row.Perfect))
	}
	return fmt.Sprintf("Table 7: accuracy of prediction heuristics for %s under different compilers\n",
		r.Program) + t.String()
}
