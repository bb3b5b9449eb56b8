package experiments

import (
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/stats"
)

// Table6Result compares per-heuristic miss rates across architectures and
// languages (Table 6 of the paper): the Ball/Larus rates published for the
// MIPS, and our measured rates on the Alpha-style target split by language,
// plus our measured rates under the MIPS-style target as the
// cross-architecture axis.
type Table6Result struct {
	BallLarusMIPS [heuristics.NumHeuristics]float64
	OursC         [heuristics.NumHeuristics]float64
	OursFortran   [heuristics.NumHeuristics]float64
	OursOverall   [heuristics.NumHeuristics]float64
	OursMIPSTgt   [heuristics.NumHeuristics]float64
	// Coverage fractions (dynamic branches the heuristic applies to) for
	// the Alpha and MIPS-style targets: the ISA mostly shifts which
	// branches a heuristic can see (e.g. two-register equality branches
	// remove the Opcode heuristic's ==constant sites).
	OverallCov [heuristics.NumHeuristics]float64
	MIPSTgtCov [heuristics.NumHeuristics]float64
}

// perProgramHeuristicAvg averages per-heuristic miss rates across programs,
// including a program in a heuristic's average only if the heuristic
// applies to at least 1% of that program's executed branches — the
// inclusion rule of the paper's Table 6. The second result is the mean
// coverage fraction per heuristic.
func perProgramHeuristicAvg(data []*core.ProgramData) (miss, cov [heuristics.NumHeuristics]float64) {
	var n [heuristics.NumHeuristics]int
	for _, pd := range data {
		per := heuristics.PerHeuristic(pd.Vectors, pd.Evidence(), pd.Profile)
		for h := range per {
			cov[h] += per[h].CoverageFraction()
			if per[h].CoverageFraction() >= 0.01 {
				miss[h] += per[h].MissRate()
				n[h]++
			}
		}
	}
	for h := range miss {
		if n[h] > 0 {
			miss[h] /= float64(n[h])
		}
		if len(data) > 0 {
			cov[h] /= float64(len(data))
		}
	}
	return miss, cov
}

// Table6 runs the cross-architecture heuristic study.
func Table6(ctx *Context) (*Table6Result, error) {
	res := &Table6Result{BallLarusMIPS: heuristics.BallLarusMIPSMiss}
	cData, err := ctx.LanguageData(ir.LangC, codegen.Default)
	if err != nil {
		return nil, err
	}
	fData, err := ctx.LanguageData(ir.LangFortran, codegen.Default)
	if err != nil {
		return nil, err
	}
	all, err := ctx.StudyData(codegen.Default)
	if err != nil {
		return nil, err
	}
	mipsAll, err := ctx.StudyData(codegen.MIPSCC)
	if err != nil {
		return nil, err
	}
	res.OursC, _ = perProgramHeuristicAvg(cData)
	res.OursFortran, _ = perProgramHeuristicAvg(fData)
	res.OursOverall, res.OverallCov = perProgramHeuristicAvg(all)
	res.OursMIPSTgt, res.MIPSTgtCov = perProgramHeuristicAvg(mipsAll)
	return res, nil
}

// DivergentHeuristics counts heuristics whose C and Fortran miss rates
// differ by more than 10 percentage points — the paper's observation that
// "four of the nine heuristics show a difference of greater than 10%".
func (r *Table6Result) DivergentHeuristics() int {
	n := 0
	for h := 0; h < int(heuristics.NumHeuristics); h++ {
		d := r.OursC[h] - r.OursFortran[h]
		if d < 0 {
			d = -d
		}
		if d > 0.10 {
			n++
		}
	}
	return n
}

// Render formats the table in the paper's layout.
func (r *Table6Result) Render() string {
	t := stats.NewTable("Branch Heuristic", "B&L (MIPS)", "Ours C", "Ours FORT", "Ours Overall",
		"Ours (MIPS tgt)", "Cov Alpha", "Cov MIPS")
	for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
		t.Row(h.String(), stats.Pct(r.BallLarusMIPS[h]), stats.Pct(r.OursC[h]),
			stats.Pct(r.OursFortran[h]), stats.Pct(r.OursOverall[h]), stats.Pct(r.OursMIPSTgt[h]),
			stats.Pct(r.OverallCov[h]), stats.Pct(r.MIPSTgtCov[h]))
	}
	return "Table 6: comparison of branch miss rates for prediction heuristics\n" +
		"(averages include a program only when the heuristic applies to >=1% of its branches)\n" +
		t.String()
}
