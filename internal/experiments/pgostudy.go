package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/internal/pgo"
	"repro/internal/stats"
)

// PGOGenSeed pins the generated-corpus slice of the guided-optimization
// study; EXPERIMENTS.md documents the pinned value.
const PGOGenSeed = 1995

// PGORow is one program's simulated cycle count under each optimization
// mode: the unguided optimizer (cmov and unrolling applied everywhere, no
// layout) against the same optimizer guided by ESP probabilities, by the
// Ball/Larus+DSHC heuristics, and by a measured ("perfect") profile.
type PGORow struct {
	Program   string       `json:"program"`
	Suite     corpus.Suite `json:"suite,omitempty"`
	Unguided  int64        `json:"unguided"`
	ESP       int64        `json:"esp"`
	Heuristic int64        `json:"heuristic"`
	Perfect   int64        `json:"perfect"`
}

// PGOStudyResult is the ESP-guided code optimization study: the paper's
// Section 6 direction ("incorporate this branch probability data to
// perform program-based profile estimation") carried through to its
// payoff, profile-guided optimization without profiles.
type PGOStudyResult struct {
	// Rows covers the 46 corpus programs in presentation order, then the
	// generated slice.
	Rows []PGORow `json:"rows"`
	// Total sums cycles over the real corpus programs only (the generated
	// slice varies with GenN, so totals over it are reported separately).
	Total PGORow `json:"total"`
	// GenTotal sums cycles over the generated slice (zero-valued when the
	// study ran with GenN = 0).
	GenTotal PGORow `json:"gen_total"`
	// GenN is the size of the generated slice included.
	GenN int `json:"gen_n"`
}

// espSavings is the per-program fractional cycle saving of ESP guidance
// over the unguided optimizer, keyed by program (real corpus only).
func (r *PGOStudyResult) espSavings() map[string]float64 {
	out := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		if row.Suite == corpus.SuiteGenerated || row.Unguided == 0 {
			continue
		}
		out[row.Program] = 1 - float64(row.ESP)/float64(row.Unguided)
	}
	return out
}

// studyEntries is the entry list of the studies that run every corpus
// program: all 46 corpus programs, then genN generated programs from seed
// (all mixes, printing their results so guided and unguided runs can be
// compared). nReal is the number of corpus programs, which come first.
func studyEntries(seed int64, genN int) (entries []corpus.Entry, nReal int) {
	entries = corpus.All()
	nReal = len(entries)
	if genN > 0 {
		spec := gencorpus.Spec{Seed: seed, N: genN, Opt: gencorpus.Options{Prints: true}}
		entries = append(entries, spec.Entries()...)
	}
	return entries, nReal
}

// PGOStudy runs the guided-optimization comparison over all 46 corpus
// programs plus genN generated programs (seed PGOGenSeed, all mixes).
//
// ESP guidance is honest: C and Fortran programs are predicted by
// leave-one-out models within their language group (exactly the Table 4
// protocol), Scheme programs leave-one-out within the Scheme group, and
// generated programs use a model trained on the full real C group —
// held out by construction.
//
// Every guided binary is differentially verified against the unguided one
// before its cycles count: printed outputs, float outputs, and the exit
// result must be bit-identical.
func PGOStudy(ctx *Context, espCfg core.Config, genN int) (*PGOStudyResult, error) {
	models, cModel, err := pgoModels(ctx, espCfg)
	if err != nil {
		return nil, err
	}
	entries, _ := studyEntries(PGOGenSeed, genN)
	rows := make([]PGORow, len(entries))
	err = par.For(0, len(entries), func(i int) error {
		e := entries[i]
		m := models[e.Name]
		if m == nil {
			m = cModel // generated programs: full-C-group model
		}
		var err error
		if rows[i], err = pgoRow(e, m); err != nil {
			return fmt.Errorf("experiments: pgo: %s: %w", e.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &PGOStudyResult{Rows: rows, GenN: genN}
	for _, row := range rows {
		tot := &res.Total
		if row.Suite == corpus.SuiteGenerated {
			tot = &res.GenTotal
		}
		tot.Unguided += row.Unguided
		tot.ESP += row.ESP
		tot.Heuristic += row.Heuristic
		tot.Perfect += row.Perfect
	}
	res.Total.Program = "Total (46 programs)"
	res.GenTotal.Program = fmt.Sprintf("Total (%d generated)", genN)
	return res, nil
}

// pgoModels returns the leave-one-out ESP models for every real corpus
// program, plus the full-C-group model used for generated programs. Both
// come from the context's training memo; callers only predict with them,
// which is safe for concurrent use.
func pgoModels(ctx *Context, espCfg core.Config) (map[string]*core.Model, *core.Model, error) {
	_, folds, err := ctx.studyFolds(espCfg)
	if err != nil {
		return nil, nil, err
	}
	schemeGroup, err := ctx.Batch(corpus.BySuite(corpus.SuiteScheme), codegen.Default)
	if err != nil {
		return nil, nil, err
	}
	cGroup, err := ctx.LanguageData(ir.LangC, codegen.Default)
	if err != nil {
		return nil, nil, err
	}
	models := make(map[string]*core.Model)
	for _, fold := range append(folds, ctx.looFolds(schemeGroup, espCfg)...) {
		models[fold.Held] = fold.Model
	}
	cModel := memoTrain(ctx, "all", cGroup, espCfg, func() *core.Model { return core.Train(cGroup, espCfg) })
	return models, cModel, nil
}

// pgoRow measures one program under all four modes.
func pgoRow(e corpus.Entry, model *core.Model) (PGORow, error) {
	opt := pgo.DefaultOptions()
	ast, err := e.Parse()
	if err != nil {
		return PGORow{}, err
	}
	run := e.RunConfig()
	run.CollectEdges = true

	unguided, err := pgo.Unguided(ast, e.Language, opt)
	if err != nil {
		return PGORow{}, err
	}
	baseProf, err := interp.Run(unguided, run)
	if err != nil {
		return PGORow{}, fmt.Errorf("unguided run: %w", err)
	}
	baseCycles, err := interp.CycleCount(unguided, baseProf)
	if err != nil {
		return PGORow{}, fmt.Errorf("unguided cycles: %w", err)
	}
	row := PGORow{Program: e.Name, Suite: e.Suite, Unguided: baseCycles}

	measure := func(name string, srcFor pgo.SourceFactory) (int64, error) {
		prog, err := pgo.Optimize(ast, e.Language, srcFor, opt)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		prof, err := interp.Run(prog, run)
		if err != nil {
			return 0, fmt.Errorf("%s: guided run: %w", name, err)
		}
		if prof.Result != baseProf.Result ||
			!reflect.DeepEqual(prof.Outputs, baseProf.Outputs) ||
			!reflect.DeepEqual(prof.FOutputs, baseProf.FOutputs) {
			return 0, fmt.Errorf("%s: guided binary changed observable behaviour", name)
		}
		cycles, err := interp.CycleCount(prog, prof)
		if err != nil {
			return 0, fmt.Errorf("%s: cycles: %w", name, err)
		}
		return cycles, nil
	}
	if row.ESP, err = measure("esp", pgo.Fixed(&core.Predictor{Model: model})); err != nil {
		return PGORow{}, err
	}
	if row.Heuristic, err = measure("heuristic", pgo.Fixed(heuristics.NewDSHCBallLarus())); err != nil {
		return PGORow{}, err
	}
	if row.Perfect, err = measure("perfect", pgo.MeasuredFactory(e.RunConfig())); err != nil {
		return PGORow{}, err
	}
	return row, nil
}

// Render formats the study: per-program cycle counts, suite-separated,
// with totals, then the per-program ESP savings through the shared
// per-program renderer.
func (r *PGOStudyResult) Render() string {
	t := stats.NewTable("Program", "Unguided", "ESP", "Heuristic", "Perfect")
	emit := func(row PGORow) {
		t.Row(row.Program, row.Unguided, row.ESP, row.Heuristic, row.Perfect)
	}
	var lastSuite corpus.Suite
	for i, row := range r.Rows {
		if i > 0 && row.Suite != lastSuite {
			t.Separator()
		}
		lastSuite = row.Suite
		emit(row)
	}
	t.Separator()
	emit(r.Total)
	if r.GenN > 0 {
		emit(r.GenTotal)
	}
	head := "ESP-guided optimization: simulated cycles (layout + gated cmov/unrolling + cold splitting)\n"
	return head + t.String() +
		"\nPer-program ESP cycle savings vs unguided\n" +
		renderPerProgram("Saved", r.espSavings(), stats.Pct1) + pctFootnote
}
