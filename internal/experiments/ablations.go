package experiments

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/stats"
)

// AblationPoint is one configuration's cross-validated ESP miss rate.
type AblationPoint struct {
	Name string
	Miss float64
}

// cvMeanMiss cross-validates ESP over both language groups and returns the
// mean per-program miss. The default configuration's folds are the ones
// Table 4 and the studies share; any other configuration is memoized as its
// mean miss alone, so an ablation point keeps no fold models alive.
func cvMeanMiss(ctx *Context, cfg core.Config) (float64, error) {
	if reflect.DeepEqual(cfg.Defaulted(), core.Config{}.Defaulted()) {
		_, folds, err := ctx.studyFolds(cfg)
		if err != nil {
			return 0, err
		}
		return core.MeanMiss(folds), nil
	}
	var data []*core.ProgramData
	var groups [][]*core.ProgramData
	for _, lang := range []ir.Language{ir.LangC, ir.LangFortran} {
		group, err := ctx.LanguageData(lang, codegen.Default)
		if err != nil {
			return 0, err
		}
		data = append(data, group...)
		groups = append(groups, group)
	}
	return memoTrain(ctx, "miss", data, cfg, func() float64 {
		var folds []core.FoldResult
		for _, group := range groups {
			folds = append(folds, core.CrossValidate(group, cfg)...)
		}
		return core.MeanMiss(folds)
	}), nil
}

// AblationFeatureSets measures ESP with feature groups removed — the
// design-choice study behind the paper's claim that irrelevant information
// does not hurt and that no feature tuning was needed.
func AblationFeatureSets(ctx *Context) ([]AblationPoint, error) {
	groups := []struct {
		name    string
		exclude []int
	}{
		{"the paper's 24 features (default)", nil},
		{"without successor features (9-24)", rangeInts(features.FTakenDominates, features.FNotTakenSuccCall)},
		{"without defining-opcode features (3-5)", rangeInts(features.FBrOperandOpcode, features.FRBOpcode)},
		{"without language/procedure features (7-8)", rangeInts(features.FLanguage, features.FProcedureType)},
		{"without loop-edge features (13-14, 21-22)", []int{
			features.FTakenSuccBackedge, features.FTakenSuccExit,
			features.FNotTakenSuccBackedge, features.FNotTakenSuccExit}},
		{"opcode+direction only (1-2)", rangeInts(features.FBrOperandOpcode, features.FLibraryProc)},
	}
	var out []AblationPoint
	for _, g := range groups {
		miss, err := cvMeanMiss(ctx, core.Config{ExcludeFeatures: g.exclude})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Name: g.name, Miss: miss})
	}
	// The Section 6 future-work extension, measured as an addition.
	withLib, err := cvMeanMiss(ctx, core.Config{IncludeLibraryFeature: true})
	if err != nil {
		return nil, err
	}
	out = append(out, AblationPoint{Name: "with the library-subroutine feature (Section 6 extension)", Miss: withLib})
	return out, nil
}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// AblationHiddenUnits sweeps the hidden-layer width.
func AblationHiddenUnits(ctx *Context, sizes []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, h := range sizes {
		miss, err := cvMeanMiss(ctx, core.Config{Hidden: h})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Name: fmt.Sprintf("%d hidden units", h), Miss: miss})
	}
	return out, nil
}

// AblationLoss compares the paper's execution-weighted loss against uniform
// example weights.
func AblationLoss(ctx *Context) ([]AblationPoint, error) {
	weighted, err := cvMeanMiss(ctx, core.Config{})
	if err != nil {
		return nil, err
	}
	uniform, err := cvMeanMiss(ctx, core.Config{UniformWeights: true})
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{Name: "weighted MB/BIT loss (paper)", Miss: weighted},
		{Name: "uniform example weights", Miss: uniform},
	}, nil
}

// AblationClassifier compares the neural net against the decision tree
// (Section 3.1.2: "comparable") and memory-based reasoning (Section 6).
func AblationClassifier(ctx *Context) ([]AblationPoint, error) {
	net, err := cvMeanMiss(ctx, core.Config{})
	if err != nil {
		return nil, err
	}
	tree, err := cvMeanMiss(ctx, core.Config{Classifier: core.DecisionTree})
	if err != nil {
		return nil, err
	}
	knn, err := cvMeanMiss(ctx, core.Config{Classifier: core.MemoryBased})
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{Name: "neural net (Section 3.1.1)", Miss: net},
		{Name: "decision tree (Section 3.1.2)", Miss: tree},
		{Name: "memory-based reasoning (Section 6)", Miss: knn},
	}, nil
}

// AblationCorrelation measures the sparse inter-branch correlation
// features (features.FCorrSharedCond/FCorrDomCond, excluded by default) as
// an addition to the paper's feature set, mirroring the library-subroutine
// ablation: does telling ESP that another (or a dominating) branch tests
// the same variable improve cross-validated prediction?
func AblationCorrelation(ctx *Context) ([]AblationPoint, error) {
	base, err := cvMeanMiss(ctx, core.Config{})
	if err != nil {
		return nil, err
	}
	with, err := cvMeanMiss(ctx, core.Config{IncludeCorrelationFeatures: true})
	if err != nil {
		return nil, err
	}
	return []AblationPoint{
		{Name: "the paper's 24 features (default)", Miss: base},
		{Name: "with inter-branch correlation features", Miss: with},
	}, nil
}

// AblationCallPolarity evaluates APHC under both readings of the Call
// heuristic (the Table 1 OCR discrepancy documented in DESIGN.md).
func AblationCallPolarity(ctx *Context) ([]AblationPoint, error) {
	data, err := ctx.StudyData(codegen.Default)
	if err != nil {
		return nil, err
	}
	eval := func(cfg heuristics.Config) float64 {
		a := heuristics.NewAPHC()
		a.Cfg = cfg
		var sum float64
		for _, pd := range data {
			sum += heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, a)
		}
		return sum / float64(len(data))
	}
	return []AblationPoint{
		{Name: "Call predicts not-taken (Ball/Larus)", Miss: eval(heuristics.Config{})},
		{Name: "Call predicts taken (paper Table 1 as printed)", Miss: eval(heuristics.Config{CallPredictsTaken: true})},
	}, nil
}

// OrderSearchResult is the outcome of the exhaustive APHC order experiment
// (Ball and Larus "determined the best fixed order by conducting an
// experiment in which all possible orders were considered").
type OrderSearchResult struct {
	Best      []heuristics.Heuristic
	BestMiss  float64
	Worst     []heuristics.Heuristic
	WorstMiss float64
	Default   float64
	Orders    int
}

// APHCOrderSearch evaluates every order of the non-loop heuristics (the
// Loop Branch heuristic always first) over the corpus.
func APHCOrderSearch(ctx *Context) (*OrderSearchResult, error) {
	data, err := ctx.StudyData(codegen.Default)
	if err != nil {
		return nil, err
	}
	// Precompute each site's per-heuristic prediction outcome.
	type siteInfo struct {
		prog     int
		executed int64
		taken    int64
		// missIf[h] is the misses incurred if heuristic h predicts the
		// site; -1 when h does not apply.
		missIf [heuristics.NumHeuristics]int64
	}
	var sites []siteInfo
	progExec := make([]int64, len(data))
	loopMiss := make([]int64, len(data))
	for pi, pd := range data {
		for i, ev := range pd.Evidence() {
			c := pd.Profile.Branches[pd.Vectors[i].Ref]
			if c == nil || c.Executed == 0 {
				continue
			}
			progExec[pi] += c.Executed
			if p := ev[heuristics.LoopBranch]; p != heuristics.None {
				if p == heuristics.Taken {
					loopMiss[pi] += c.Executed - c.Taken
				} else {
					loopMiss[pi] += c.Taken
				}
				continue
			}
			si := siteInfo{prog: pi, executed: c.Executed, taken: c.Taken}
			for h := heuristics.Heuristic(1); h < heuristics.NumHeuristics; h++ {
				switch ev[h] {
				case heuristics.Taken:
					si.missIf[h] = c.Executed - c.Taken
				case heuristics.NotTaken:
					si.missIf[h] = c.Taken
				default:
					si.missIf[h] = -1
				}
			}
			sites = append(sites, si)
		}
	}
	nonLoop := []heuristics.Heuristic{
		heuristics.Pointer, heuristics.Opcode, heuristics.Guard,
		heuristics.LoopExit, heuristics.LoopHeader, heuristics.Call,
		heuristics.Store, heuristics.Return,
	}
	evalOrder := func(order []heuristics.Heuristic) float64 {
		miss := make([]float64, len(data))
		for pi := range data {
			miss[pi] = float64(loopMiss[pi])
		}
		for i := range sites {
			s := &sites[i]
			charged := false
			for _, h := range order {
				if s.missIf[h] >= 0 {
					miss[s.prog] += float64(s.missIf[h])
					charged = true
					break
				}
			}
			if !charged {
				miss[s.prog] += 0.5 * float64(s.executed)
			}
		}
		var sum float64
		n := 0
		for pi := range data {
			if progExec[pi] > 0 {
				sum += miss[pi] / float64(progExec[pi])
				n++
			}
		}
		return sum / float64(n)
	}
	res := &OrderSearchResult{BestMiss: 2, WorstMiss: -1}
	res.Default = evalOrder(heuristics.DefaultOrder[1:])
	perm := make([]heuristics.Heuristic, len(nonLoop))
	copy(perm, nonLoop)
	sort.Slice(perm, func(i, j int) bool { return perm[i] < perm[j] })
	permute(perm, 0, func(order []heuristics.Heuristic) {
		res.Orders++
		m := evalOrder(order)
		if m < res.BestMiss {
			res.BestMiss = m
			res.Best = append([]heuristics.Heuristic(nil), order...)
		}
		if m > res.WorstMiss {
			res.WorstMiss = m
			res.Worst = append([]heuristics.Heuristic(nil), order...)
		}
	})
	return res, nil
}

// permute enumerates permutations of hs[k:] in place.
func permute(hs []heuristics.Heuristic, k int, visit func([]heuristics.Heuristic)) {
	if k == len(hs) {
		visit(hs)
		return
	}
	for i := k; i < len(hs); i++ {
		hs[k], hs[i] = hs[i], hs[k]
		permute(hs, k+1, visit)
		hs[k], hs[i] = hs[i], hs[k]
	}
}

// RenderAblations formats a list of ablation points.
func RenderAblations(title string, points []AblationPoint) string {
	t := stats.NewTable("Configuration", "Miss Rate")
	for _, p := range points {
		t.Row(p.Name, stats.Pct1(p.Miss))
	}
	return title + "\n" + t.String()
}

// Render formats the order-search result.
func (r *OrderSearchResult) Render() string {
	name := func(hs []heuristics.Heuristic) string {
		out := ""
		for i, h := range hs {
			if i > 0 {
				out += " > "
			}
			out += h.String()
		}
		return out
	}
	return fmt.Sprintf(
		"APHC order search over %d orders (Loop Branch always first)\n"+
			"  best order:  %s (miss %s%%)\n"+
			"  worst order: %s (miss %s%%)\n"+
			"  default:     %s%%\n",
		r.Orders, name(r.Best), stats.Pct1(r.BestMiss),
		name(r.Worst), stats.Pct1(r.WorstMiss), stats.Pct1(r.Default))
}
