package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches listed in DESIGN.md and component micro-benchmarks.
// Corpus compilation and profiling are cached so each benchmark measures
// its own experiment's work. Experiments that train ESP run every
// iteration on a fresh context (benchTraining): a context memoizes
// leave-one-out training, so a shared one would time memo hits.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/neural"
)

var (
	benchCtx  *experiments.Context
	benchOnce sync.Once
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext()
		// Pre-analyze the corpus so benchmarks time their experiment, not
		// corpus profiling.
		if _, err := benchCtx.StudyData(codegen.Default); err != nil {
			panic(err)
		}
	})
	return benchCtx
}

// benchTraining times run on a fresh context per iteration. The corpus is
// analyzed once into a b.TempDir() artifact cache; each iteration's context
// loads it from that cache with the timer stopped, so the timed part is
// the experiment's training and scoring.
func benchTraining(b *testing.B, run func(ctx *experiments.Context)) {
	b.Helper()
	cache, err := artifact.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.NewContextWithCache(cache).StudyData(codegen.Default); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := experiments.NewContextWithCache(cache)
		if _, err := ctx.StudyData(codegen.Default); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		run(ctx)
	}
}

// --- One benchmark per table/figure ------------------------------------------

func BenchmarkTable1Heuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3ProgramStats(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 43 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTable4MissRates(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		res, err := experiments.Table4(ctx, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Overall.ESP >= res.Overall.APHC {
			b.Fatalf("headline inverted: ESP %.3f vs APHC %.3f",
				res.Overall.ESP, res.Overall.APHC)
		}
	})
}

func BenchmarkTable5HeuristicDetail(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6CrossArch(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7CompilerSweep(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1NetDescription(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Figure1(100, 20) == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure2TomcatvEdges(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.TopBlockSharePct <= 0 {
			b.Fatal("no hot blocks")
		}
	}
}

func BenchmarkSchemeStudy(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SchemeStudy(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusSizeSweep(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		if _, err := experiments.CorpusSize(ctx, []int{8, 23}, core.Config{}); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Ablation benches (DESIGN.md) --------------------------------------------

func BenchmarkAblationFeatureSets(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		if _, err := experiments.AblationFeatureSets(ctx); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationHiddenUnits(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		if _, err := experiments.AblationHiddenUnits(ctx, []int{12, 20}); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationLoss(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		if _, err := experiments.AblationLoss(ctx); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationClassifier(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		if _, err := experiments.AblationClassifier(ctx); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkAblationCallPolarity(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCallPolarity(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAPHCOrder(b *testing.B) {
	ctx := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.APHCOrderSearch(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Orders != 40320 {
			b.Fatal("wrong order count")
		}
	}
}

func BenchmarkProfileEstimation(b *testing.B) {
	benchTraining(b, func(ctx *experiments.Context) {
		res, err := experiments.ProfileEstimation(ctx, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.ESPError >= res.UniformError {
			b.Fatal("ESP probabilities no better than the uninformed baseline")
		}
	})
}

// --- Component micro-benchmarks -----------------------------------------------

func BenchmarkCompileEspresso(b *testing.B) {
	e, _ := corpus.ByName("espresso")
	ast, err := minic.Parse(e.Name, e.Source+corpus.StdlibSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(ast, e.Language, codegen.Default); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretTomcatv(b *testing.B) {
	e, _ := corpus.ByName("tomcatv")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := interp.Run(prog, e.RunConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(prof.Insns) // reports interpreted instructions per second
	}
}

// BenchmarkInterpretCorpus times interp.Run over the 46 corpus programs
// (Default target), one pass with edge profiling off and one with it on per
// iteration, and reports both passes and their ratio: what CollectEdges
// costs the interpreter.
func BenchmarkInterpretCorpus(b *testing.B) {
	entries := corpus.All()
	progs := make([]*ir.Program, len(entries))
	for i, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = prog
	}
	pass := func(edges bool) time.Duration {
		start := time.Now()
		for i, e := range entries {
			cfg := e.RunConfig()
			cfg.CollectEdges = edges
			if _, err := interp.Run(progs[i], cfg); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	var off, on time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off += pass(false)
		on += pass(true)
	}
	b.ReportMetric(off.Seconds()*1e3/float64(b.N), "off-ms/pass")
	b.ReportMetric(on.Seconds()*1e3/float64(b.N), "on-ms/pass")
	b.ReportMetric(on.Seconds()/off.Seconds(), "on/off")
}

func BenchmarkFeatureExtraction(b *testing.B) {
	e, _ := corpus.ByName("gcc")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := features.Collect(prog)
		if len(features.ExtractAll(ps)) == 0 {
			b.Fatal("no features")
		}
	}
}

func BenchmarkHeuristicApply(b *testing.B) {
	e, _ := corpus.ByName("gcc")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	ps := features.Collect(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range ps.Sites {
			for _, h := range heuristics.AllHeuristics() {
				heuristics.Apply(h, s, heuristics.Config{})
			}
		}
	}
}

// BenchmarkTable4ESPCrossVal isolates the paper's core computation: the
// leave-one-out ESP cross-validation over the C language group.
func BenchmarkTable4ESPCrossVal(b *testing.B) {
	ctx := sharedCtx(b)
	data, err := ctx.LanguageData(ir.LangC, codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		folds := core.CrossValidate(data, core.Config{})
		if len(folds) != len(data) {
			b.Fatal("missing folds")
		}
	}
}

// BenchmarkNeuralTrainSparse is the dense oracle's training workload
// (internal/neural BenchmarkNeuralTraining: 500 examples, 86 inputs, 12
// hidden) run through the sparse fused kernel on encoder-realistic data
// (block-sparse rows, ~35% exact zeros).
func BenchmarkNeuralTrainSparse(b *testing.B) {
	cfg := neural.Config{Inputs: 86, Hidden: 12, Seed: 1, MaxEpochs: 50, Patience: 50}
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64((rng>>33)&0xFFFF)/65535*2 - 1
	}
	xs := make([][]float64, 500)
	ts := make([]float64, 500)
	ws := make([]float64, 500)
	for i := range xs {
		xs[i] = make([]float64, cfg.Inputs)
		for j := range xs[i] {
			// Gated feature blocks are exact zeros, as the encoder emits.
			if j%8 < 3 && (i+j/8)%3 == 0 {
				continue
			}
			xs[i][j] = next()
		}
		ts[i] = (next() + 1) / 2
		ws[i] = 1.0 / 500
	}
	data := neural.NewCSRFromDense(xs, cfg.Inputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := neural.New(cfg)
		n.TrainCSR(cfg, data, ts, ws)
	}
}

// BenchmarkInterpProfile measures profile collection end to end on the
// espresso workload (map-free branch counting in the dispatch loop).
func BenchmarkInterpProfile(b *testing.B) {
	e, _ := corpus.ByName("espresso")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := interp.Run(prog, e.RunConfig())
		if err != nil {
			b.Fatal(err)
		}
		if prof.CondExec == 0 {
			b.Fatal("no branches profiled")
		}
		b.SetBytes(prof.Insns)
	}
}

func BenchmarkESPPrediction(b *testing.B) {
	ctx := sharedCtx(b)
	data, err := ctx.LanguageData(ir.LangFortran, codegen.Default)
	if err != nil {
		b.Fatal(err)
	}
	model := core.Train(data[1:], core.Config{})
	pred := &core.Predictor{Model: model}
	held := data[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.MissRate(held.Vectors, held.Evidence(), held.Profile, pred)
	}
}

// shardedPrograms is the size of the generated corpus the ShardedCorpus
// benchmarks analyze, as in perfbench's gen workload.
const shardedPrograms = 300

// BenchmarkShardedCorpusCold times ShardedCorpus.Examples over 300
// generated programs into an empty artifact cache: every entry compiles,
// profiles and collects its sites, and each shard of 64 programs stores
// one pack of its records and one source-index entry.
func BenchmarkShardedCorpusCold(b *testing.B) {
	entries := gencorpus.Spec{Seed: 1, N: shardedPrograms}.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := artifact.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := (&gencorpus.ShardedCorpus{Entries: entries, Cache: cache}).Examples(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerProgram(b, len(entries))
}

// BenchmarkShardedCorpusWarm times ShardedCorpus.Examples over the same
// programs from a filled cache: each shard reads its source-index entry
// and its pack, and each entry decodes its record from the pack and builds
// its examples from the record and the runtime library image.
func BenchmarkShardedCorpusWarm(b *testing.B) {
	cache, err := artifact.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	src := &gencorpus.ShardedCorpus{Entries: gencorpus.Spec{Seed: 1, N: shardedPrograms}.Entries(), Cache: cache}
	if _, err := src.Examples(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Examples(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerProgram(b, len(src.Entries))
}

// BenchmarkStudyWarm times the warm study pass perfbench reports as
// analyze_warm_ms_per_program: for each of the 43 study programs in turn,
// Entry.Compile (linked against the runtime library) and
// core.AnalyzeCached from a filled cache, which keys, reads the record and
// collects the program's sites.
func BenchmarkStudyWarm(b *testing.B) {
	cache, err := artifact.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	entries := corpus.Study()
	pass := func() {
		for _, e := range entries {
			prog, err := e.Compile(codegen.Default)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.AnalyzeCached(cache, prog, e.Language, e.RunConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	runs := interp.TotalRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	if interp.TotalRuns() != runs {
		b.Fatal("a warm pass ran the interpreter")
	}
	reportPerProgram(b, len(entries))
}

// reportPerProgram reports the timed wall time per analyzed program.
func reportPerProgram(b *testing.B, programs int) {
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*programs), "ms/program")
}
