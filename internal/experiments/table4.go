package experiments

import (
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// Table4Row is one program's miss rates under each predictor (fractions,
// not percentages).
type Table4Row struct {
	Program  string
	Suite    corpus.Suite
	BTFNT    float64
	APHC     float64
	DSHCBL   float64
	DSHCOurs float64
	ESP      float64
	Perfect  float64
}

// Table4Result is the paper's central comparison.
type Table4Result struct {
	Rows []Table4Row
	// SuiteAvg holds per-suite mean rows; Overall the corpus mean.
	SuiteAvg map[corpus.Suite]Table4Row
	Overall  Table4Row
	// MeasuredMiss holds the per-heuristic miss rates measured on this
	// corpus (used to configure DSHC(Ours), analogous to Table 6's
	// "Overall" column feeding the paper's DSHC(Ours)).
	MeasuredMiss [heuristics.NumHeuristics]float64
}

// MeasuredHeuristicMiss aggregates per-heuristic miss rates over a corpus.
func MeasuredHeuristicMiss(data []*core.ProgramData) [heuristics.NumHeuristics]float64 {
	var cov, missed [heuristics.NumHeuristics]int64
	for _, pd := range data {
		per := heuristics.PerHeuristic(pd.Vectors, pd.Evidence(), pd.Profile)
		for h := range per {
			cov[h] += per[h].Covered
			missed[h] += per[h].Missed
		}
	}
	var out [heuristics.NumHeuristics]float64
	for h := range out {
		if cov[h] > 0 {
			out[h] = float64(missed[h]) / float64(cov[h])
		} else {
			out[h] = 0.5
		}
	}
	return out
}

// Table4 runs the full comparison: BTFNT, APHC, DSHC with the Ball/Larus
// published rates, DSHC with rates measured on this corpus, ESP under
// leave-one-out cross-validation within each language group, and the
// perfect static predictor.
func Table4(ctx *Context, espCfg core.Config) (*Table4Result, error) {
	data, err := ctx.StudyData(codegen.Default)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{SuiteAvg: make(map[corpus.Suite]Table4Row)}
	res.MeasuredMiss = MeasuredHeuristicMiss(data)

	// ESP: leave-one-out within the C and Fortran groups.
	_, folds, err := ctx.studyFolds(espCfg)
	if err != nil {
		return nil, err
	}
	espMiss := make(map[string]float64, len(folds))
	for _, fold := range folds {
		espMiss[fold.Held] = fold.MissRate
	}

	aphc := heuristics.NewAPHC()
	dshcBL := heuristics.NewDSHCBallLarus()
	dshcOurs := heuristics.NewDSHCFromMiss("DSHC(Ours)", res.MeasuredMiss)
	entries := corpus.Study()
	for i, pd := range data {
		row := Table4Row{
			Program:  pd.Name,
			Suite:    entries[i].Suite,
			BTFNT:    heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, heuristics.BTFNT{}),
			APHC:     heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, aphc),
			DSHCBL:   heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, dshcBL),
			DSHCOurs: heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, dshcOurs),
			ESP:      espMiss[pd.Name],
			Perfect:  heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, &heuristics.Perfect{Prof: pd.Profile}),
		}
		res.Rows = append(res.Rows, row)
	}
	for _, suite := range []corpus.Suite{corpus.SuiteOtherC, corpus.SuiteSPECC,
		corpus.SuiteSPECFortran, corpus.SuitePerfectClub} {
		res.SuiteAvg[suite] = averageRows(res.Rows, suite)
	}
	res.Overall = averageRows(res.Rows, "")
	return res, nil
}

// averageRows means the rows of one suite ("" for all).
func averageRows(rows []Table4Row, suite corpus.Suite) Table4Row {
	var out Table4Row
	n := 0
	for _, r := range rows {
		if suite != "" && r.Suite != suite {
			continue
		}
		out.BTFNT += r.BTFNT
		out.APHC += r.APHC
		out.DSHCBL += r.DSHCBL
		out.DSHCOurs += r.DSHCOurs
		out.ESP += r.ESP
		out.Perfect += r.Perfect
		n++
	}
	if n == 0 {
		return out
	}
	f := float64(n)
	out.BTFNT /= f
	out.APHC /= f
	out.DSHCBL /= f
	out.DSHCOurs /= f
	out.ESP /= f
	out.Perfect /= f
	if suite == "" {
		out.Program = "Overall Avg"
	} else {
		out.Program = string(suite) + " Avg"
	}
	out.Suite = suite
	return out
}

// Render formats the table in the paper's layout.
func (r *Table4Result) Render() string {
	t := stats.NewTable("Program", "BTFNT", "APHC", "DSHC(B&L)", "DSHC(Ours)", "ESP", "Perfect")
	emit := func(row Table4Row) {
		t.Row(row.Program, stats.Pct(row.BTFNT), stats.Pct(row.APHC),
			stats.Pct(row.DSHCBL), stats.Pct(row.DSHCOurs),
			stats.Pct(row.ESP), stats.Pct(row.Perfect))
	}
	var lastSuite corpus.Suite
	for i, row := range r.Rows {
		if i > 0 && row.Suite != lastSuite {
			emit(r.SuiteAvg[lastSuite])
			t.Separator()
		}
		lastSuite = row.Suite
		emit(row)
	}
	emit(r.SuiteAvg[lastSuite])
	t.Separator()
	emit(r.Overall)
	return "Table 4: branch misprediction rates (% of executed conditional branches)\n" +
		t.String() + heuristicOrderString() + "\n"
}
