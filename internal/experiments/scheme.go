package experiments

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// SchemeStudyResult reproduces the Section 3.1.2 language study: the
// Ball/Larus heuristics applied to three Scheme programs (boyer, corewar,
// sccomp), where the paper found the Return heuristic missing 56% and the
// Pointer heuristic 89% — evidence that heuristics are language dependent.
type SchemeStudyResult struct {
	// SchemeMiss and CMiss hold per-heuristic miss rates on the Scheme
	// programs and on the C group, for contrast.
	SchemeMiss [heuristics.NumHeuristics]float64
	CMiss      [heuristics.NumHeuristics]float64
	Programs   []string
	APHCMiss   map[string]float64
}

// SchemeStudy measures heuristic behaviour on the Scheme corpus.
func SchemeStudy(ctx *Context) (*SchemeStudyResult, error) {
	scheme, err := ctx.Batch(corpus.BySuite(corpus.SuiteScheme), codegen.Default)
	if err != nil {
		return nil, err
	}
	cGroup, err := ctx.LanguageData("C", codegen.Default)
	if err != nil {
		return nil, err
	}
	res := &SchemeStudyResult{APHCMiss: make(map[string]float64)}
	res.SchemeMiss, _ = perProgramHeuristicAvg(scheme)
	res.CMiss, _ = perProgramHeuristicAvg(cGroup)
	aphc := heuristics.NewAPHC()
	for _, pd := range scheme {
		res.Programs = append(res.Programs, pd.Name)
		res.APHCMiss[pd.Name] = heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, aphc)
	}
	return res, nil
}

// Render formats the study.
func (r *SchemeStudyResult) Render() string {
	t := stats.NewTable("Heuristic", "Scheme Miss", "C Miss", "Delta")
	for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
		t.Row(h.String(), stats.Pct(r.SchemeMiss[h]), stats.Pct(r.CMiss[h]),
			stats.Pct(r.SchemeMiss[h]-r.CMiss[h]))
	}
	out := "Section 3.1.2 Scheme study: heuristic miss rates on boyer/corewar/sccomp vs the C group\n" + t.String()
	for _, p := range r.Programs {
		out += fmt.Sprintf("APHC on %-8s %s%%\n", p, stats.Pct(r.APHCMiss[p]))
	}
	return out
}
