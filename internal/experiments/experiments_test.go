package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/heuristics"
)

// sharedCtx caches corpus analysis across the tests in this package.
var (
	sharedCtx  *Context
	sharedOnce sync.Once
)

func ctxForTest(t *testing.T) *Context {
	if testing.Short() {
		t.Skip("experiment reproduction tests are skipped in -short mode")
	}
	sharedOnce.Do(func() { sharedCtx = NewContext() })
	return sharedCtx
}

// memoOf caches one expensive driver result (cross-validated tables run for
// seconds) so the reproduction tests and the golden-file tests share a
// single computation per `go test` run.
type memoOf[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memoOf[T]) get(t *testing.T, f func() (T, error)) T {
	t.Helper()
	m.once.Do(func() { m.val, m.err = f() })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.val
}

var (
	memoTable3     memoOf[*Table3Result]
	memoTable4     memoOf[*Table4Result]
	memoTable5     memoOf[*Table5Result]
	memoTable6     memoOf[*Table6Result]
	memoTable7     memoOf[*Table7Result]
	memoFigure2    memoOf[*Figure2Result]
	memoScheme     memoOf[*SchemeStudyResult]
	memoCorpusSize memoOf[*CorpusSizeResult]
	memoFigure2b   memoOf[*CorpusSizeGenResult]
	memoClassifier memoOf[[]AblationPoint]
	memoPolarity   memoOf[[]AblationPoint]
	memoCorr       memoOf[[]AblationPoint]
	memoProfileEst memoOf[*ProfileEstimationResult]
	memoOrders     memoOf[*OrderSearchResult]
	memoPGO        memoOf[*PGOStudyResult]
	memoHwsim      memoOf[*HwsimStudyResult]
	memoTaxonomy   memoOf[*TaxonomyResult]
)

func table3ForTest(t *testing.T) *Table3Result {
	ctx := ctxForTest(t)
	return memoTable3.get(t, func() (*Table3Result, error) { return Table3(ctx) })
}

func table4ForTest(t *testing.T) *Table4Result {
	ctx := ctxForTest(t)
	return memoTable4.get(t, func() (*Table4Result, error) { return Table4(ctx, core.Config{}) })
}

func table5ForTest(t *testing.T) *Table5Result {
	ctx := ctxForTest(t)
	return memoTable5.get(t, func() (*Table5Result, error) { return Table5(ctx) })
}

func table6ForTest(t *testing.T) *Table6Result {
	ctx := ctxForTest(t)
	return memoTable6.get(t, func() (*Table6Result, error) { return Table6(ctx) })
}

func table7ForTest(t *testing.T) *Table7Result {
	ctx := ctxForTest(t)
	return memoTable7.get(t, func() (*Table7Result, error) { return Table7(ctx) })
}

func figure2ForTest(t *testing.T) *Figure2Result {
	ctx := ctxForTest(t)
	return memoFigure2.get(t, func() (*Figure2Result, error) { return Figure2(ctx) })
}

func schemeForTest(t *testing.T) *SchemeStudyResult {
	ctx := ctxForTest(t)
	return memoScheme.get(t, func() (*SchemeStudyResult, error) { return SchemeStudy(ctx) })
}

func corpusSizeForTest(t *testing.T) *CorpusSizeResult {
	ctx := ctxForTest(t)
	return memoCorpusSize.get(t, func() (*CorpusSizeResult, error) {
		return CorpusSize(ctx, []int{8, 23}, core.Config{})
	})
}

// figure2bForTest runs a miniature Figure 2b sweep: the full driver path
// (generate -> analyze -> train -> per-mix evaluation) over corpus sizes small
// enough for CI; EXPERIMENTS.md documents the full 46 -> 4000 render.
func figure2bForTest(t *testing.T) *CorpusSizeGenResult {
	ctx := ctxForTest(t)
	return memoFigure2b.get(t, func() (*CorpusSizeGenResult, error) {
		cfg := core.Config{Hidden: 8}
		cfg.Net.MaxEpochs = 60
		cfg.Net.Patience = 15
		return CorpusSizeGen(ctx, GenSweep{Sizes: []int{10, 40}, EvalN: 3}, cfg)
	})
}

func classifierAblationForTest(t *testing.T) []AblationPoint {
	ctx := ctxForTest(t)
	return memoClassifier.get(t, func() ([]AblationPoint, error) { return AblationClassifier(ctx) })
}

func polarityAblationForTest(t *testing.T) []AblationPoint {
	ctx := ctxForTest(t)
	return memoPolarity.get(t, func() ([]AblationPoint, error) { return AblationCallPolarity(ctx) })
}

func correlationAblationForTest(t *testing.T) []AblationPoint {
	ctx := ctxForTest(t)
	return memoCorr.get(t, func() ([]AblationPoint, error) { return AblationCorrelation(ctx) })
}

func profileEstForTest(t *testing.T) *ProfileEstimationResult {
	ctx := ctxForTest(t)
	return memoProfileEst.get(t, func() (*ProfileEstimationResult, error) {
		return ProfileEstimation(ctx, core.Config{})
	})
}

// pgoForTest runs the guided-optimization study with a small generated
// slice; espbench -pgo uses a larger one for the committed BENCH artifact.
func pgoForTest(t *testing.T) *PGOStudyResult {
	ctx := ctxForTest(t)
	return memoPGO.get(t, func() (*PGOStudyResult, error) {
		return PGOStudy(ctx, core.Config{}, 4)
	})
}

// hwsimForTest runs the hardware co-simulation study with a small generated
// slice; espbench -hwsim uses a larger one for the committed BENCH artifact.
func hwsimForTest(t *testing.T) *HwsimStudyResult {
	ctx := ctxForTest(t)
	return memoHwsim.get(t, func() (*HwsimStudyResult, error) {
		return HwsimStudy(ctx, core.Config{}, 4)
	})
}

func taxonomyForTest(t *testing.T) *TaxonomyResult {
	ctx := ctxForTest(t)
	return memoTaxonomy.get(t, func() (*TaxonomyResult, error) {
		return TaxonomyStudy(ctx, 4)
	})
}

func orderSearchForTest(t *testing.T) *OrderSearchResult {
	ctx := ctxForTest(t)
	return memoOrders.get(t, func() (*OrderSearchResult, error) { return APHCOrderSearch(ctx) })
}

func TestTable1And2Render(t *testing.T) {
	t1 := Table1()
	for _, h := range heuristics.AllHeuristics() {
		if !strings.Contains(t1, h.String()) {
			t.Errorf("Table 1 missing heuristic %v", h)
		}
	}
	t2 := Table2()
	for _, want := range []string{"br.opcode", "language", "taken.backedge", "nottaken.call"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing feature %q", want)
		}
	}
}

func TestTable3Reproduction(t *testing.T) {
	res := table3ForTest(t)
	if len(res.Rows) != 43 {
		t.Fatalf("%d rows, want 43", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Insns <= 0 {
			t.Errorf("%s: no instructions traced", row.Program)
		}
		if row.PctCond <= 0 || row.PctCond > 25 {
			t.Errorf("%s: %%cond = %.2f implausible", row.Program, row.PctCond)
		}
		if row.PctTaken <= 0 || row.PctTaken >= 100 {
			t.Errorf("%s: %%taken = %.2f implausible", row.Program, row.PctTaken)
		}
		// Quantiles must be nondecreasing and bounded by the static count.
		for i := 1; i < len(row.Quantiles); i++ {
			if row.Quantiles[i] < row.Quantiles[i-1] {
				t.Errorf("%s: quantiles not monotone: %v", row.Program, row.Quantiles)
			}
		}
		if row.Quantiles[len(row.Quantiles)-1] > row.Static {
			t.Errorf("%s: Q-100 %d exceeds static sites %d",
				row.Program, row.Quantiles[len(row.Quantiles)-1], row.Static)
		}
	}
	if !strings.Contains(res.Render(), "tomcatv") {
		t.Error("render missing programs")
	}
}

func TestTable4HeadlineShape(t *testing.T) {
	res := table4ForTest(t)
	o := res.Overall
	// The paper's ordering: perfect < ESP < APHC ~ DSHC < BTFNT.
	if !(o.Perfect < o.ESP) {
		t.Errorf("perfect (%.3f) must beat ESP (%.3f)", o.Perfect, o.ESP)
	}
	if !(o.ESP < o.APHC) {
		t.Errorf("headline: ESP (%.3f) must beat APHC (%.3f)", o.ESP, o.APHC)
	}
	if !(o.APHC < o.BTFNT) {
		t.Errorf("APHC (%.3f) must beat BTFNT (%.3f)", o.APHC, o.BTFNT)
	}
	// Dempster-Shafer does not beat the fixed order by more than noise
	// (the paper's conclusion: "the Dempster-Shafer theory does not
	// combine the evidence well enough to improve branch prediction").
	if o.DSHCOurs < o.APHC-0.02 || o.DSHCBL < o.APHC-0.02 {
		t.Errorf("DSHC (%.3f/%.3f) must not clearly beat APHC (%.3f)",
			o.DSHCBL, o.DSHCOurs, o.APHC)
	}
	// Plausible absolute bands (paper: 34/25/26/25/20/8).
	if o.BTFNT < 0.25 || o.BTFNT > 0.50 {
		t.Errorf("BTFNT overall %.3f outside band", o.BTFNT)
	}
	if o.APHC < 0.15 || o.APHC > 0.35 {
		t.Errorf("APHC overall %.3f outside band", o.APHC)
	}
	if o.ESP < 0.10 || o.ESP > 0.30 {
		t.Errorf("ESP overall %.3f outside band", o.ESP)
	}
	if o.Perfect < 0.02 || o.Perfect > 0.20 {
		t.Errorf("perfect overall %.3f outside band", o.Perfect)
	}
	// Per-program sanity.
	if len(res.Rows) != 43 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		for name, v := range map[string]float64{
			"btfnt": row.BTFNT, "aphc": row.APHC, "dshcBL": row.DSHCBL,
			"dshcOurs": row.DSHCOurs, "esp": row.ESP, "perfect": row.Perfect,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: %s = %g out of range", row.Program, name, v)
			}
		}
		if row.Perfect > row.BTFNT+1e-9 && row.Perfect > row.APHC+1e-9 {
			t.Errorf("%s: perfect (%.3f) worse than both baselines", row.Program, row.Perfect)
		}
	}
	if !strings.Contains(res.Render(), "Overall Avg") {
		t.Error("render missing overall row")
	}
}

// TestEqualConfigsShareOneTraining: configurations that are equal once
// defaulted read one memoized fold set, the PGO models are that set's
// models, and Table 4's ESP column is its miss rates.
func TestEqualConfigsShareOneTraining(t *testing.T) {
	ctx := ctxForTest(t)
	res := table4ForTest(t)
	_, folds, err := ctx.studyFolds(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := ctx.studyFolds(core.Config{Hidden: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 43 || len(again) != len(folds) {
		t.Fatalf("%d and %d folds, want 43", len(folds), len(again))
	}
	models, _, err := pgoModels(ctx, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	esp := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		esp[row.Program] = row.ESP
	}
	for i, f := range folds {
		if f.Model == nil || again[i].Model != f.Model {
			t.Errorf("fold %s: equal configurations trained separate models", f.Held)
		}
		if models[f.Held] != f.Model {
			t.Errorf("fold %s: the PGO model is not the memoized fold model", f.Held)
		}
		if got, ok := esp[f.Held]; !ok || got != f.MissRate {
			t.Errorf("fold %s: Table 4 ESP %v, fold miss rate %v", f.Held, got, f.MissRate)
		}
	}
}

func TestTable5Reproduction(t *testing.T) {
	res := table5ForTest(t)
	loopMiss, pctNonLoop, pctCov, missCov, missDef, overall := res.Averages()
	// Paper: loop miss 15%, 50% non-loop, 70% covered, 33/38/25.
	if loopMiss > 0.25 {
		t.Errorf("loop miss %.3f too high", loopMiss)
	}
	if pctNonLoop < 30 || pctNonLoop > 85 {
		t.Errorf("%%non-loop %.1f outside band", pctNonLoop)
	}
	if pctCov < 50 || pctCov > 95 {
		t.Errorf("%%covered %.1f outside band", pctCov)
	}
	if missCov >= missDef+1e-9 {
		t.Errorf("adding the random default cannot lower the miss: %.3f vs %.3f", missCov, missDef)
	}
	if overall < 0.10 || overall > 0.40 {
		t.Errorf("overall %.3f outside band", overall)
	}
}

func TestTable6Reproduction(t *testing.T) {
	res := table6ForTest(t)
	// The paper's headline for this table: heuristics are language
	// dependent — several heuristics differ by >10 points between C and
	// Fortran (four of nine in the paper).
	if n := res.DivergentHeuristics(); n < 2 {
		t.Errorf("only %d heuristics diverge by >10 points between languages", n)
	}
	if res.OursOverall[heuristics.LoopBranch] > 0.25 {
		t.Errorf("loop-branch miss %.3f too high", res.OursOverall[heuristics.LoopBranch])
	}
	// The MIPS-style target must shift at least one heuristic visibly —
	// in miss rate or in coverage (two-register branches change which
	// branches the Opcode/Pointer heuristics even apply to).
	shifted := 0
	for h := 0; h < int(heuristics.NumHeuristics); h++ {
		dm := res.OursOverall[h] - res.OursMIPSTgt[h]
		if dm < 0 {
			dm = -dm
		}
		dc := res.OverallCov[h] - res.MIPSTgtCov[h]
		if dc < 0 {
			dc = -dc
		}
		if dm > 0.03 || dc > 0.03 {
			shifted++
		}
	}
	if shifted == 0 {
		t.Error("the MIPS target shifted no heuristic's accuracy or coverage")
	}
}

func TestTable7Reproduction(t *testing.T) {
	res := table7ForTest(t)
	if len(res.Rows) != 4 {
		t.Fatalf("%d compiler rows", len(res.Rows))
	}
	byName := map[string]Table7Row{}
	for _, r := range res.Rows {
		byName[r.Compiler] = r
	}
	base := byName[codegen.AlphaCC.Name]
	gem := byName[codegen.AlphaGEM.Name]
	// GEM's unrolling reduces the dynamic frequency of loop branches — the
	// paper's explicit observation.
	if gem.PctLoopBranches >= base.PctLoopBranches {
		t.Errorf("GEM loop share %.1f not below baseline %.1f",
			gem.PctLoopBranches, base.PctLoopBranches)
	}
	// The compilers must not all behave identically.
	distinct := map[string]bool{}
	for _, r := range res.Rows {
		distinct[r.Compiler] = true
		if r.B.OverallMissRate() <= 0 || r.B.OverallMissRate() >= 1 {
			t.Errorf("%s: overall miss %.3f", r.Compiler, r.B.OverallMissRate())
		}
	}
	shares := map[float64]bool{}
	for _, r := range res.Rows {
		shares[r.PctLoopBranches] = true
	}
	if len(shares) < 3 {
		t.Errorf("compiler configurations barely differ: loop shares %v", shares)
	}
}

func TestFigure2Reproduction(t *testing.T) {
	res := figure2ForTest(t)
	// "most of the basic block transitions in that procedure involve three
	// basic blocks"
	if res.TopBlockSharePct < 20 {
		t.Errorf("top-3 block share %.1f%% too small", res.TopBlockSharePct)
	}
	if len(res.Edges) == 0 {
		t.Fatal("no edges collected")
	}
	if res.Edges[0].PctOfTotal <= 0 {
		t.Error("hottest edge has no share")
	}
	// The fragment must show the FABS/compare kernel of Figure 2.
	if !strings.Contains(res.Fragment, "fabs") &&
		!strings.Contains(res.Fragment, "cmptlt") &&
		!strings.Contains(res.Fragment, "fbne") &&
		!strings.Contains(res.Fragment, "subt") {
		t.Errorf("hot fragment lacks the FP kernel:\n%s", res.Fragment)
	}
}

func TestSchemeStudyReproduction(t *testing.T) {
	res := schemeForTest(t)
	// The paper's Section 3.1.2 finding: the Pointer and Return heuristics
	// degrade on Scheme relative to C.
	if res.SchemeMiss[heuristics.Pointer] <= res.CMiss[heuristics.Pointer] {
		t.Errorf("Pointer on Scheme (%.3f) must be worse than on C (%.3f)",
			res.SchemeMiss[heuristics.Pointer], res.CMiss[heuristics.Pointer])
	}
	if res.SchemeMiss[heuristics.Return] <= res.CMiss[heuristics.Return] {
		t.Errorf("Return on Scheme (%.3f) must be worse than on C (%.3f)",
			res.SchemeMiss[heuristics.Return], res.CMiss[heuristics.Return])
	}
	if len(res.Programs) != 3 {
		t.Errorf("scheme programs = %v", res.Programs)
	}
}

func TestCorpusSizeReproduction(t *testing.T) {
	res := corpusSizeForTest(t)
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	small, full := res.Points[0], res.Points[1]
	// The paper: with 8 programs ESP was no better than the heuristics;
	// growing the corpus to all 23 C programs improved ESP's relative
	// position. Require the ESP-vs-APHC gap to shrink materially and reach
	// at least parity (the decisive overall win in Table 4 comes from the
	// combined corpus).
	smallGap := small.ESP - small.APHC
	fullGap := full.ESP - full.APHC
	if fullGap > smallGap-0.01 {
		t.Errorf("growing the corpus did not improve ESP's relative position: %+.3f -> %+.3f",
			smallGap, fullGap)
	}
	if fullGap > 0.02 {
		t.Errorf("with the full C corpus ESP (%.3f) must at least match APHC (%.3f)",
			full.ESP, full.APHC)
	}
}

func TestCorpusSizeGenReproduction(t *testing.T) {
	res := figure2bForTest(t)
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if len(p.PerMix) != 5 {
			t.Fatalf("size %d: %d mix columns, want 5", p.Programs, len(p.PerMix))
		}
		if p.Overall <= 0 || p.Overall >= 1 {
			t.Errorf("size %d: overall miss %.3f out of range", p.Programs, p.Overall)
		}
		for _, mm := range p.PerMix {
			if mm.ESP < 0 || mm.ESP > 1 || mm.APHC < 0 || mm.APHC > 1 {
				t.Errorf("size %d %s: miss rates out of range (%v)", p.Programs, mm.Mix, mm)
			}
		}
	}
	// The APHC baseline is size-independent by construction.
	for mi := range res.Points[0].PerMix {
		if res.Points[0].PerMix[mi].APHC != res.Points[1].PerMix[mi].APHC {
			t.Errorf("APHC baseline varies with training-corpus size")
		}
	}
	// Growing the training corpus 4x must not make ESP materially worse on
	// the held-out programs.
	if res.Points[1].Overall > res.Points[0].Overall+0.05 {
		t.Errorf("growing the corpus hurt: %.3f -> %.3f",
			res.Points[0].Overall, res.Points[1].Overall)
	}
}

func TestAblationsRun(t *testing.T) {
	cls := classifierAblationForTest(t)
	if len(cls) != 3 {
		t.Fatalf("classifier ablation points = %d", len(cls))
	}
	// Memory-based reasoning must be competitive (within 10 points).
	if cls[2].Miss > cls[0].Miss+0.10 {
		t.Errorf("memory-based reasoning (%.3f) far behind the net (%.3f)",
			cls[2].Miss, cls[0].Miss)
	}
	// Section 3.1.2: the decision tree is comparable to the net.
	d := cls[0].Miss - cls[1].Miss
	if d < 0 {
		d = -d
	}
	if d > 0.08 {
		t.Errorf("net (%.3f) and tree (%.3f) are not comparable", cls[0].Miss, cls[1].Miss)
	}
	polarity := polarityAblationForTest(t)
	if polarity[0].Miss == polarity[1].Miss {
		t.Error("Call polarity knob changed nothing")
	}
	if out := RenderAblations("x", polarity); !strings.Contains(out, "Call") {
		t.Error("render broken")
	}
	// The correlation-feature addition: like the paper's experience with
	// extra features, it must not materially hurt (irrelevant information
	// does not hurt), and the default point must equal the untouched base
	// config bit for bit (the features are masked out by default).
	corr := correlationAblationForTest(t)
	if len(corr) != 2 {
		t.Fatalf("correlation ablation points = %d", len(corr))
	}
	if corr[1].Miss > corr[0].Miss+0.03 {
		t.Errorf("correlation features hurt badly: %.3f -> %.3f", corr[0].Miss, corr[1].Miss)
	}
}

func TestProfileEstimationReproduction(t *testing.T) {
	res := profileEstForTest(t)
	// ESP's probability output must beat the uninformed baseline, and every
	// error is a probability distance in [0, 1].
	if res.ESPError >= res.UniformError {
		t.Errorf("ESP estimation error %.3f not below the 0.5 baseline %.3f",
			res.ESPError, res.UniformError)
	}
	for name, e := range res.PerProgram {
		if e < 0 || e > 1 {
			t.Errorf("%s: estimation error %g out of range", name, e)
		}
	}
	if !strings.Contains(res.Render(), "profile estimation") {
		t.Error("render broken")
	}
}

func TestPGOStudyReproduction(t *testing.T) {
	res := pgoForTest(t)
	if len(res.Rows) != 46+res.GenN {
		t.Fatalf("%d rows, want %d", len(res.Rows), 46+res.GenN)
	}
	for _, row := range res.Rows {
		for mode, c := range map[string]int64{"unguided": row.Unguided,
			"esp": row.ESP, "heuristic": row.Heuristic, "perfect": row.Perfect} {
			if c <= 0 {
				t.Errorf("%s: %s cycles = %d", row.Program, mode, c)
			}
		}
	}
	// The acceptance shape: every guidance source beats the unguided
	// optimizer in aggregate, and ESP lands within a bounded gap of the
	// perfect measured profile.
	tot := res.Total
	if tot.ESP >= tot.Unguided {
		t.Errorf("ESP guidance (%d cycles) did not beat unguided (%d)", tot.ESP, tot.Unguided)
	}
	if tot.Heuristic >= tot.Unguided {
		t.Errorf("heuristic guidance (%d cycles) did not beat unguided (%d)", tot.Heuristic, tot.Unguided)
	}
	if tot.Perfect >= tot.Unguided {
		t.Errorf("perfect guidance (%d cycles) did not beat unguided (%d)", tot.Perfect, tot.Unguided)
	}
	if float64(tot.ESP) > 1.10*float64(tot.Perfect) {
		t.Errorf("ESP (%d cycles) more than 10%% behind the perfect profile (%d)", tot.ESP, tot.Perfect)
	}
	if res.GenN > 0 && res.GenTotal.ESP >= res.GenTotal.Unguided {
		t.Errorf("generated slice: ESP (%d) did not beat unguided (%d)",
			res.GenTotal.ESP, res.GenTotal.Unguided)
	}
	if !strings.Contains(res.Render(), "ESP-guided optimization") {
		t.Error("render broken")
	}
}

func TestHwsimStudyReproduction(t *testing.T) {
	res := hwsimForTest(t)
	if len(res.Cells) != len(HwsimPredictors)*len(HwsimSeeds) {
		t.Fatalf("%d cells, want %d", len(res.Cells), len(HwsimPredictors)*len(HwsimSeeds))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Events == 0 {
			t.Fatalf("%s/%s saw no events", c.Predictor, c.Seed)
		}
		if r := c.Rate(); r < 0 || r > 1 {
			t.Errorf("%s/%s rate %.3f out of range", c.Predictor, c.Seed, r)
		}
	}
	// Every counter of a predictor family sees the identical stream.
	for _, p := range HwsimPredictors {
		ev := res.cell(p, "unseeded").Events
		for _, s := range HwsimSeeds {
			if res.cell(p, s).Events != ev {
				t.Errorf("%s/%s saw %d events, unseeded saw %d", p, s, res.cell(p, s).Events, ev)
			}
		}
	}
	// The acceptance shape: ESP-seeded counters beat unseeded cold starts
	// at the small warmup budgets, for the per-site predictors.
	for _, p := range []string{"1bit", "2bit"} {
		for k := 0; k < 2; k++ {
			esp := res.cell(p, "esp").WarmRate(k)
			un := res.cell(p, "unseeded").WarmRate(k)
			if esp >= un {
				t.Errorf("%s warmup %d: esp-seeded %.4f not below unseeded %.4f",
					p, res.Warmups[k], esp, un)
			}
		}
	}
	// Hint quality must order the cold start: the perfect profile's hints
	// are at least as good as ESP's at the smallest budget.
	if perf, esp := res.cell("2bit", "perfect").WarmRate(0), res.cell("2bit", "esp").WarmRate(0); perf > esp+1e-9 {
		t.Errorf("perfect-seeded cold start %.4f worse than esp %.4f", perf, esp)
	}
	// Steady state: with millions of events, seeding must not matter much
	// for the per-site 2-bit (within 1 point) — the gain is cold start.
	if d := res.cell("2bit", "esp").Rate() - res.cell("2bit", "unseeded").Rate(); d > 0.01 || d < -0.01 {
		t.Errorf("2bit steady-state seeded/unseeded gap %.4f implausibly large", d)
	}
	// History predictors must beat per-site counters in steady state on
	// aggregate (that is why hardware builds them).
	if res.cell("tage", "unseeded").Rate() >= res.cell("2bit", "unseeded").Rate() {
		t.Errorf("tage steady state (%.4f) not below 2bit (%.4f)",
			res.cell("tage", "unseeded").Rate(), res.cell("2bit", "unseeded").Rate())
	}
	if len(res.ProgramESPMiss) != 46 {
		t.Errorf("per-program map has %d entries, want 46", len(res.ProgramESPMiss))
	}
	if !strings.Contains(res.Render(), "Hardware co-simulation") {
		t.Error("render broken")
	}
}

func TestTaxonomyReproduction(t *testing.T) {
	res := taxonomyForTest(t)
	if len(res.Rows) != 46+res.GenN {
		t.Fatalf("%d rows, want %d", len(res.Rows), 46+res.GenN)
	}
	for _, row := range res.Rows {
		if row.Events <= 0 || row.Sites <= 0 {
			t.Errorf("%s: no branch activity (%d sites, %d events)", row.Program, row.Sites, row.Events)
		}
		if row.Entropy < 0 || row.Entropy > 1 {
			t.Errorf("%s: entropy %.3f outside [0,1]", row.Program, row.Entropy)
		}
		if row.Bias < 0.5 || row.Bias > 1 {
			t.Errorf("%s: bias %.3f outside [0.5,1]", row.Program, row.Bias)
		}
		for _, v := range []float64{row.SelfAgree, row.PrevAgree} {
			if v < 0 || v > 1 {
				t.Errorf("%s: agreement %.3f out of range", row.Program, v)
			}
		}
	}
	// Corpus branches are biased, not coin flips: weighted entropy well
	// below 1 bit and self-agreement above 50% — the structure static
	// prediction (and the 1-bit predictor) exploits.
	if res.Corpus.Entropy >= 0.9 {
		t.Errorf("corpus weighted entropy %.3f implausibly high", res.Corpus.Entropy)
	}
	if res.Corpus.SelfAgree <= 0.5 {
		t.Errorf("corpus self-agreement %.3f not above chance", res.Corpus.SelfAgree)
	}
	if !strings.Contains(res.Render(), "taxonomy") {
		t.Error("render broken")
	}
}

func TestAPHCOrderSearch(t *testing.T) {
	res := orderSearchForTest(t)
	if res.Orders != 40320 { // 8!
		t.Errorf("searched %d orders, want 8! = 40320", res.Orders)
	}
	if res.BestMiss > res.Default || res.Default > res.WorstMiss {
		t.Errorf("order metrics inconsistent: best %.3f default %.3f worst %.3f",
			res.BestMiss, res.Default, res.WorstMiss)
	}
	if len(res.Best) != 8 || len(res.Worst) != 8 {
		t.Error("orders have wrong length")
	}
	if !strings.Contains(res.Render(), "best order") {
		t.Error("render broken")
	}
}
