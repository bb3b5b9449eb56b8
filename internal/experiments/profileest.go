package experiments

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/stats"
)

// ProfileEstimationResult is the Section 6 future-work study: "Our next
// goal will be to incorporate this branch probability data to perform
// program-based profile estimation using ESP." For every program (under
// leave-one-out cross-validation) the held-out model's probability output
// is used as a static branch profile and scored against the measured
// profile, alongside the Dempster-Shafer evidence probabilities of Wu and
// Larus and the uninformed 0.5 baseline.
type ProfileEstimationResult struct {
	// Errors are execution-weighted mean absolute probability errors,
	// |p_estimated − p_actual|, averaged over programs.
	ESPError     float64
	DSHCError    float64
	UniformError float64
	// PerProgram lists the ESP error per held-out program.
	PerProgram map[string]float64
}

// ProfileEstimation runs the study over both language groups.
func ProfileEstimation(ctx *Context, cfg core.Config) (*ProfileEstimationResult, error) {
	data, folds, err := ctx.studyFolds(cfg)
	if err != nil {
		return nil, err
	}
	res := &ProfileEstimationResult{PerProgram: make(map[string]float64)}
	dshc := heuristics.NewDSHCBallLarus()
	var espSum, dshcSum, uniSum float64
	n := 0
	for k, held := range data {
		model := folds[k].Model
		var espErr, dshcErr, uniErr, total float64
		ev := held.Evidence()
		for i := range held.Vectors {
			c := held.Profile.Branches[held.Vectors[i].Ref]
			if c == nil || c.Executed == 0 {
				continue
			}
			w := float64(c.Executed)
			actual := c.TakenFraction()
			esp := model.TakenProbability(held.Vectors[i])
			dp, _ := dshc.TakenProbability(&ev[i])
			espErr += w * math.Abs(esp-actual)
			dshcErr += w * math.Abs(dp-actual)
			uniErr += w * math.Abs(0.5-actual)
			total += w
		}
		if total == 0 {
			continue
		}
		res.PerProgram[held.Name] = espErr / total
		espSum += espErr / total
		dshcSum += dshcErr / total
		uniSum += uniErr / total
		n++
	}
	if n > 0 {
		res.ESPError = espSum / float64(n)
		res.DSHCError = dshcSum / float64(n)
		res.UniformError = uniSum / float64(n)
	}
	return res, nil
}

// Render formats the study summary followed by the deterministically
// ordered per-program breakdown.
func (r *ProfileEstimationResult) Render() string {
	t := stats.NewTable("Estimator", "Weighted |p_est - p_actual|")
	t.Row("ESP probabilities (cross-validated)", fmtErr(r.ESPError))
	t.Row("DSHC evidence (Wu/Larus)", fmtErr(r.DSHCError))
	t.Row("uninformed 0.5 baseline", fmtErr(r.UniformError))
	return "Section 6 study: program-based profile estimation from ESP probabilities\n" + t.String() +
		"\nPer-program ESP estimation error (held-out)\n" +
		renderPerProgram("Weighted |p_est - p_actual|", r.PerProgram, fmtErr)
}

func fmtErr(e float64) string { return stats.Pct1(e) + "/100" }

// pctFootnote annotates tables whose values render through stats.Pct1.
const pctFootnote = "(values are percentages)\n"

// renderPerProgram renders a per-program metric map in deterministic
// (sorted-by-name) order — shared by the profile-estimation study and the
// guided-optimization study so their per-program sections stay uniform.
func renderPerProgram(header string, vals map[string]float64, format func(float64) string) string {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	t := stats.NewTable("Program", header)
	for _, name := range names {
		t.Row(name, format(vals[name]))
	}
	return t.String()
}
