package core

import (
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/par"
)

// FoldResult is one leave-one-out fold: the model trained on every corpus
// program except Held, evaluated on Held.
type FoldResult struct {
	Held     string
	MissRate float64
	// TrainPrograms is the number of programs trained on.
	TrainPrograms int
	// Model is the fold's model. Its examples are pooled in corpus order,
	// so it is the model Train returns on the corpus without Held.
	Model *Model
}

// preparedProgram is one program's fold-independent training data: the
// masked feature vectors, targets, and weights of its executed branches.
// Cross-validation extracts these once per program and reuses them across
// every fold instead of re-deriving them per fold (masking and example
// extraction depend only on the configuration, not on which program is
// held out; only the encoder's vocabulary and normalization are per-fold).
type preparedProgram struct {
	masked  []features.Vector
	targets []float64
	weights []float64
}

func prepareProgram(pd *ProgramData, gate *featureGate) preparedProgram {
	examples := pd.Examples()
	p := preparedProgram{
		masked:  make([]features.Vector, len(examples)),
		targets: make([]float64, len(examples)),
		weights: make([]float64, len(examples)),
	}
	for i, ex := range examples {
		p.masked[i] = maskVector(ex.Vector, gate)
		p.targets[i] = ex.Target
		p.weights[i] = ex.Weight
	}
	return p
}

// CrossValidate performs the paper's leave-one-out cross-validation: for
// each program, ESP trains on the remaining programs of the group and
// predicts the held-out program. The paper validates within language groups
// (C programs against C programs, Fortran against Fortran); callers pass the
// group as corpus.
//
// Folds run in parallel on GOMAXPROCS workers but every fold's training
// is deterministic (the seed is fixed per configuration), so results are
// reproducible.
func CrossValidate(corpus []*ProgramData, cfg Config) []FoldResult {
	return crossValidate(corpus, cfg, 0)
}

// CrossValidateSerial is CrossValidate with the folds run one at a time, in
// order. It exists as the reference for tests: the parallel run must produce
// identical folds.
func CrossValidateSerial(corpus []*ProgramData, cfg Config) []FoldResult {
	return crossValidate(corpus, cfg, 1)
}

func crossValidate(corpus []*ProgramData, cfg Config, workers int) []FoldResult {
	cfg = cfg.withDefaults()
	gate := gateOf(cfg.ExcludeFeatures)
	preps := make([]preparedProgram, len(corpus))
	for i, pd := range corpus {
		preps[i] = prepareProgram(pd, &gate)
	}
	results := make([]FoldResult, len(corpus))
	// A fold cannot fail, so For's error is always nil.
	_ = par.For(workers, len(corpus), func(i int) error {
		results[i] = crossValidateFold(corpus, preps, i, cfg, gate)
		return nil
	})
	return results
}

func crossValidateFold(corpus []*ProgramData, preps []preparedProgram, hold int, cfg Config, gate featureGate) FoldResult {
	total := 0
	for j := range preps {
		if j != hold {
			total += len(preps[j].masked)
		}
	}
	masked := make([]features.Vector, 0, total)
	targets := make([]float64, 0, total)
	weights := make([]float64, 0, total)
	for j := range preps {
		if j == hold {
			continue
		}
		masked = append(masked, preps[j].masked...)
		targets = append(targets, preps[j].targets...)
		weights = append(weights, preps[j].weights...)
	}
	model := trainMasked(masked, targets, weights, cfg, gate)
	held := corpus[hold]
	miss := heuristics.MissRate(held.Vectors, held.Evidence(), held.Profile, &Predictor{Model: model})
	return FoldResult{
		Held:          held.Name,
		MissRate:      miss,
		TrainPrograms: len(corpus) - 1,
		Model:         model,
	}
}

// MeanMiss averages the fold miss rates (the paper averages per-program
// miss rates within suites and overall).
func MeanMiss(folds []FoldResult) float64 {
	if len(folds) == 0 {
		return 0
	}
	var sum float64
	for _, f := range folds {
		sum += f.MissRate
	}
	return sum / float64(len(folds))
}
