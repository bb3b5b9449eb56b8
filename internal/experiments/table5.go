package experiments

import (
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// Table5Row is one program's heuristic-decomposition row (Table 5).
type Table5Row struct {
	Program string
	Suite   corpus.Suite
	B       heuristics.Breakdown
}

// Table5Result decomposes APHC performance into loop and non-loop branches
// with heuristic coverage, as in Table 5 of the paper.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 computes the decomposition for every program.
func Table5(ctx *Context) (*Table5Result, error) {
	data, err := ctx.StudyData(codegen.Default)
	if err != nil {
		return nil, err
	}
	aphc := heuristics.NewAPHC()
	res := &Table5Result{}
	entries := corpus.Study()
	for i, pd := range data {
		res.Rows = append(res.Rows, Table5Row{
			Program: pd.Name,
			Suite:   entries[i].Suite,
			B:       heuristics.BreakdownOf(pd.Vectors, pd.Evidence(), pd.Profile, aphc),
		})
	}
	return res, nil
}

// Averages returns the column means over all programs.
func (r *Table5Result) Averages() (loopMiss, pctNonLoop, pctCovered, missCov, missDefault, overall float64) {
	n := float64(len(r.Rows))
	if n == 0 {
		return
	}
	for _, row := range r.Rows {
		loopMiss += row.B.LoopMissRate()
		pctNonLoop += row.B.PctNonLoop()
		pctCovered += row.B.PctCovered()
		missCov += row.B.MissForHeuristics()
		missDefault += row.B.MissWithDefault()
		overall += row.B.OverallMissRate()
	}
	return loopMiss / n, pctNonLoop / n, pctCovered / n, missCov / n, missDefault / n, overall / n
}

// Render formats the table in the paper's layout.
func (r *Table5Result) Render() string {
	t := stats.NewTable("Program", "Loop Miss Rate", "% Non-Loop Branches",
		"% Covered By Heuristics", "Miss For Heuristics", "Miss With Default", "Overall Miss Rate")
	var lastSuite corpus.Suite
	for i, row := range r.Rows {
		if i > 0 && row.Suite != lastSuite {
			t.Separator()
		}
		lastSuite = row.Suite
		b := row.B
		t.Row(row.Program, stats.Pct(b.LoopMissRate()),
			stats.Pct1(b.PctNonLoop()/100), stats.Pct1(b.PctCovered()/100),
			stats.Pct(b.MissForHeuristics()), stats.Pct(b.MissWithDefault()),
			stats.Pct(b.OverallMissRate()))
	}
	t.Separator()
	lm, nl, cov, mc, md, ov := r.Averages()
	t.Row("Overall Avg", stats.Pct(lm), stats.Pct1(nl/100), stats.Pct1(cov/100),
		stats.Pct(mc), stats.Pct(md), stats.Pct(ov))
	return "Table 5: results for the program-based heuristic approaches (APHC order)\n" + t.String()
}
