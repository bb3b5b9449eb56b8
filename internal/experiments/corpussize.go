package experiments

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/stats"
)

// CorpusSizePoint is ESP's cross-validated miss rate with a corpus prefix
// of the given size, against APHC on the same held-out programs.
type CorpusSizePoint struct {
	Programs int
	ESP      float64
	APHC     float64
}

// CorpusSizeResult reproduces the paper's corpus-size observation (Section
// 3.1.2): with only 8 C programs ESP matched APHC/DSHC; growing the corpus
// to all 23 C programs made ESP clearly better.
type CorpusSizeResult struct {
	Points []CorpusSizePoint
}

// CorpusSize cross-validates ESP within growing prefixes of the C group.
func CorpusSize(ctx *Context, sizes []int, cfg core.Config) (*CorpusSizeResult, error) {
	group, err := ctx.LanguageData(ir.LangC, codegen.Default)
	if err != nil {
		return nil, err
	}
	aphc := heuristics.NewAPHC()
	res := &CorpusSizeResult{}
	for _, size := range sizes {
		if size < 2 || size > len(group) {
			return nil, fmt.Errorf("experiments: corpus size %d out of range [2,%d]", size, len(group))
		}
		sub := group[:size]
		folds := ctx.looFolds(sub, cfg)
		var am float64
		for i := range sub {
			am += heuristics.MissRate(sub[i].Vectors, sub[i].Evidence(), sub[i].Profile, aphc)
		}
		res.Points = append(res.Points, CorpusSizePoint{
			Programs: size,
			ESP:      core.MeanMiss(folds),
			APHC:     am / float64(size),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *CorpusSizeResult) Render() string {
	t := stats.NewTable("C Programs In Corpus", "ESP Miss", "APHC Miss")
	for _, p := range r.Points {
		t.Row(p.Programs, stats.Pct1(p.ESP), stats.Pct1(p.APHC))
	}
	return "Corpus-size study (Section 3.1.2): ESP vs APHC as the C corpus grows\n" + t.String()
}

// GenSweep parameterizes the Figure 2b extension: the corpus-size study
// continued past the paper's 46 programs on the generated corpus, with the
// miss rate broken out by branch-character mix.
type GenSweep struct {
	// Seed is the training-corpus base seed (default 1).
	Seed int64
	// Sizes lists the training-corpus sizes swept (default 46 -> 4000).
	Sizes []int
	// EvalSeed is the held-out evaluation corpus base seed (default 999);
	// eval programs are always disjoint from the training corpus.
	EvalSeed int64
	// EvalN is the number of evaluation programs per mix (default 8).
	EvalN int
}

// GenSizes returns the default Figure 2b training-corpus sizes, ascending.
func GenSizes() []int { return []int{46, 100, 250, 500, 1000, 2000, 4000} }

func (s GenSweep) withDefaults() GenSweep {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Sizes) == 0 {
		s.Sizes = GenSizes()
	}
	if s.EvalSeed == 0 {
		s.EvalSeed = 999
	}
	if s.EvalN == 0 {
		s.EvalN = 8
	}
	return s
}

// GenMixMiss is one mix column of a Figure 2b row.
type GenMixMiss struct {
	Mix  string
	ESP  float64
	APHC float64
}

// GenSizePoint is one Figure 2b row: the model trained on a generated
// corpus prefix of the given size, evaluated on the fixed held-out set.
type GenSizePoint struct {
	Programs int
	// Overall is the mean miss rate over every evaluation program.
	Overall float64
	// PerMix breaks the miss rate out by branch character, in
	// gencorpus.AllMixes order.
	PerMix []GenMixMiss
}

// CorpusSizeGenResult is the Figure 2b table.
type CorpusSizeGenResult struct {
	Sweep GenSweep
	// Points has one row per swept corpus size.
	Points []GenSizePoint
}

// CorpusSizeGen extends the corpus-size study past the paper's 46 programs
// (Figure 2 stops at ~40): train on growing generated corpora — analyzed
// through the artifact cache — and evaluate on a disjoint held-out
// generated set, per branch-character mix. Training prefixes are nested
// (size 100 contains size 46's programs), mirroring how Figure 2 grows one
// corpus rather than resampling.
func CorpusSizeGen(ctx *Context, sw GenSweep, cfg core.Config) (*CorpusSizeGenResult, error) {
	sw = sw.withDefaults()
	mixes := gencorpus.AllMixes()

	// Held-out evaluation programs, EvalN per mix, analyzed once through
	// the context like any other corpus entry.
	evalData := make([][]*core.ProgramData, len(mixes))
	for mi, m := range mixes {
		spec := gencorpus.Spec{Seed: sw.EvalSeed + int64(mi), N: sw.EvalN, Mixes: []gencorpus.Mix{m}}
		data, err := ctx.Batch(spec.Entries(), codegen.Default)
		if err != nil {
			return nil, err
		}
		evalData[mi] = data
	}
	aphc := heuristics.NewAPHC()

	res := &CorpusSizeGenResult{Sweep: sw}
	for _, size := range sw.Sizes {
		if size < 2 {
			return nil, fmt.Errorf("experiments: generated corpus size %d out of range", size)
		}
		spec := gencorpus.Spec{Seed: sw.Seed, N: size}
		src := &gencorpus.ShardedCorpus{Entries: spec.Entries(), Cache: ctx.PersistentCache()}
		examples, err := src.Examples()
		if err != nil {
			return nil, err
		}
		model := core.TrainExamples(examples, cfg)

		pred := &core.Predictor{Model: model}
		point := GenSizePoint{Programs: size}
		var sum float64
		var n int
		for mi, m := range mixes {
			var em, am float64
			for _, pd := range evalData[mi] {
				em += heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, pred)
				am += heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, aphc)
			}
			k := float64(len(evalData[mi]))
			point.PerMix = append(point.PerMix, GenMixMiss{Mix: m.String(), ESP: em / k, APHC: am / k})
			sum += em
			n += len(evalData[mi])
		}
		point.Overall = sum / float64(n)
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Render formats Figure 2b: one row per corpus size with per-mix miss
// rates, and the static APHC heuristic as the size-independent baseline row.
func (r *CorpusSizeGenResult) Render() string {
	cols := []string{"Generated Programs"}
	for _, m := range gencorpus.AllMixes() {
		cols = append(cols, m.String())
	}
	cols = append(cols, "Overall")
	t := stats.NewTable(cols...)
	for _, p := range r.Points {
		row := []any{p.Programs}
		for _, mm := range p.PerMix {
			row = append(row, stats.Pct1(mm.ESP))
		}
		row = append(row, stats.Pct1(p.Overall))
		t.Row(row...)
	}
	if len(r.Points) > 0 {
		row := []any{"APHC (baseline)"}
		var sum float64
		for _, mm := range r.Points[0].PerMix {
			row = append(row, stats.Pct1(mm.APHC))
			sum += mm.APHC
		}
		row = append(row, stats.Pct1(sum/float64(len(r.Points[0].PerMix))))
		t.Row(row...)
	}
	return fmt.Sprintf("Figure 2b: ESP miss rate vs generated-corpus size, per branch-character mix\n"+
		"(train seed %d, eval seed %d, %d held-out programs per mix)\n%s",
		r.Sweep.Seed, r.Sweep.EvalSeed, r.Sweep.EvalN, t.String())
}
