package gencorpus_test

// The generator's own property suite: every generated program, across every
// branch-character mix, must parse under the serving parse budgets, compile
// under the CFG budgets, terminate well within interpreter fuel, and
// reproduce bit-identical sources, profiles, and feature vectors across
// runs and worker counts. The differential tests elsewhere lean on these
// guarantees; this file is where they are pinned.

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/minic"
)

// Budgets every generated program must satisfy: the serving-layer parse and
// CFG limits, and a fuel ceiling far below the interpreter default so a
// termination regression in the generator surfaces as a test failure, not a
// minutes-long hang.
const (
	parseDepthBudget = 64
	cfgBlocksBudget  = 2048
	fuelBudget       = 4_000_000
)

// seedsPerMix scales the sweep: a fast slice under -short (the -race CI
// soak), the full thousand per mix by default, and more under -tags slow.
func seedsPerMix(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	if slowTests {
		return 5000
	}
	return 1000
}

// mustBuild parses and compiles p under the guard budgets.
func mustBuild(t *testing.T, p gencorpus.Program) *interp.Profile {
	t.Helper()
	lim := minic.Limits{MaxDepth: parseDepthBudget}
	ast, err := minic.ParseWithLimits(p.Name, p.Source+corpus.StdlibSource+corpus.Stdlib2Source, lim)
	if err != nil {
		t.Fatalf("seed %d (%s): parse: %v\n%s", p.Seed, p.Mix, err, p.Source)
	}
	prog, err := codegen.CompileBounded(ast, p.Entry().Language, codegen.Default,
		guard.Limits{CFGBlocks: cfgBlocksBudget})
	if err != nil {
		t.Fatalf("seed %d (%s): compile: %v\n%s", p.Seed, p.Mix, err, p.Source)
	}
	cfg := p.Entry().RunConfig()
	cfg.MaxInsns = fuelBudget
	prof, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatalf("seed %d (%s): run: %v\n%s", p.Seed, p.Mix, err, p.Source)
	}
	return prof
}

func TestEveryProgramParsesCompilesTerminates(t *testing.T) {
	n := seedsPerMix(t)
	for _, mix := range gencorpus.AllMixes() {
		mix := mix
		t.Run(mix.String(), func(t *testing.T) {
			t.Parallel()
			branchy := 0
			for seed := int64(0); seed < int64(n); seed++ {
				p := gencorpus.Generate(seed, mix)
				prof := mustBuild(t, p)
				if prof.CondExec > 0 {
					branchy++
				}
			}
			// The mix must actually produce branch behaviour to train on.
			if branchy < n*3/4 {
				t.Errorf("%s: only %d/%d programs executed a conditional branch", mix, branchy, n)
			}
		})
	}
}

func TestGenerateByteIdentical(t *testing.T) {
	for _, mix := range gencorpus.AllMixes() {
		for seed := int64(0); seed < 50; seed++ {
			a := gencorpus.Generate(seed, mix)
			b := gencorpus.Generate(seed, mix)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d (%s): two generations differ", seed, mix)
			}
		}
	}
	// Options variants are independent draws but equally reproducible.
	opt := gencorpus.Options{Prints: true, Stmts: 12}
	a := gencorpus.GenerateOpts(3, gencorpus.Mixed, opt)
	b := gencorpus.GenerateOpts(3, gencorpus.Mixed, opt)
	if a.Source != b.Source {
		t.Fatal("GenerateOpts is not reproducible")
	}
}

// TestProfilesAndVectorsBitIdentical pins the pipeline guarantee the
// artifact cache and streaming trainer rest on: analyzing the same
// generated program twice yields bit-identical profiles and feature
// vectors.
func TestProfilesAndVectorsBitIdentical(t *testing.T) {
	spec := gencorpus.Spec{Seed: 77, N: 10}
	for i := 0; i < spec.N; i++ {
		e := spec.Program(i).Entry()
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Vectors, b.Vectors) {
			t.Fatalf("%s: feature vectors differ between runs", e.Name)
		}
		if a.Profile.Insns != b.Profile.Insns || !reflect.DeepEqual(a.Profile.Branches, b.Profile.Branches) {
			t.Fatalf("%s: profiles differ between runs", e.Name)
		}
	}
}

// TestShardLoadWorkerCountIndependent analyzes one shard at GOMAXPROCS=1
// and at the test's full parallelism, and requires bit-identical example
// streams — the assembled-in-entry-order contract of ShardedCorpus.Load.
func TestShardLoadWorkerCountIndependent(t *testing.T) {
	spec := gencorpus.Spec{Seed: 5, N: 8}
	src := &gencorpus.ShardedCorpus{Entries: spec.Entries(), Size: 8}

	wide, err := src.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	narrow, err := src.Load(0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide, narrow) {
		t.Fatal("shard examples depend on GOMAXPROCS")
	}
}

// TestShardLoadCacheTemperatureIndependent requires a warm (cache-hit) load
// to be bit-identical to the cold load that filled the cache.
func TestShardLoadCacheTemperatureIndependent(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := gencorpus.Spec{Seed: 6, N: 6}
	src := &gencorpus.ShardedCorpus{Entries: spec.Entries(), Size: 6, Cache: cache}
	cold, err := src.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	before := interp.TotalRuns()
	warm, err := src.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if traces := interp.TotalRuns() - before; traces != 0 {
		t.Errorf("warm shard load did %d interpreter traces, want 0", traces)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm shard examples differ from cold")
	}
}

// TestExamplesMatchesShardLoads requires Examples to equal the in-order
// concatenation of every shard's Load, whatever the shard size: Size only
// partitions Load, so it can never change what a model trains on.
func TestExamplesMatchesShardLoads(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := gencorpus.Spec{Seed: 7, N: 10}.Entries()
	all, err := (&gencorpus.ShardedCorpus{Entries: entries, Cache: cache}).Examples()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("Examples returned no examples")
	}
	for _, size := range []int{1, 4, len(entries)} {
		src := &gencorpus.ShardedCorpus{Entries: entries, Size: size, Cache: cache}
		var joined []core.Example
		for i := 0; i*size < len(entries); i++ {
			ex, err := src.Load(i)
			if err != nil {
				t.Fatal(err)
			}
			joined = append(joined, ex...)
		}
		if !reflect.DeepEqual(all, joined) {
			t.Errorf("size %d: Examples differs from the concatenated shard loads", size)
		}
	}
}

// TestExamplesWarmRunZeroTraces trains on a cold Examples pass, then again
// over the filled artifact cache: the warm pass must do no interpreter
// trace and save a model byte-identical to the cold one. This is what lets
// a killed training run resume by running again against the same cache.
func TestExamplesWarmRunZeroTraces(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := core.Config{Seed: 7, Hidden: 8}
	cfg.Net.MaxEpochs = 40
	cfg.Net.Patience = 10
	train := func() []byte {
		t.Helper()
		cache, err := artifact.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		src := &gencorpus.ShardedCorpus{Entries: gencorpus.Spec{Seed: 11, N: 12}.Entries(), Cache: cache}
		ex, err := src.Examples()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.TrainExamples(ex, cfg).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold := train()
	before := interp.TotalRuns()
	warm := train()
	if traces := interp.TotalRuns() - before; traces != 0 {
		t.Errorf("warm run did %d interpreter traces, want 0", traces)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm model differs from cold model")
	}
}

func TestSpecSeedsDistinctAndStable(t *testing.T) {
	s := gencorpus.Spec{Seed: 1, N: 2000}
	seen := make(map[int64]int, s.N)
	for i := 0; i < s.N; i++ {
		d := s.ProgramSeed(i)
		if j, dup := seen[d]; dup {
			t.Fatalf("programs %d and %d share derived seed %d", j, i, d)
		}
		seen[d] = i
	}
	// Spec naming embeds base seed, index, and mix, so entries are unique.
	names := map[string]bool{}
	for _, e := range (gencorpus.Spec{Seed: 1, N: 25}).Entries() {
		if names[e.Name] {
			t.Fatalf("duplicate entry name %s", e.Name)
		}
		names[e.Name] = true
		if e.Suite != corpus.SuiteGenerated {
			t.Fatalf("%s: suite %q", e.Name, e.Suite)
		}
	}
}

func TestParseMixRoundTrips(t *testing.T) {
	for _, m := range gencorpus.AllMixes() {
		got, err := gencorpus.ParseMix(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMix(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := gencorpus.ParseMix("bogus"); err == nil {
		t.Fatal("ParseMix accepted a bogus mix")
	}
}

// TestGenCorpusSoak is the opt-in long soak: GENCORPUS_SOAK=<n> sweeps n
// seeds per mix through the full build-and-run budget check (the CI target
// runs the -short sweep under -race instead).
func TestGenCorpusSoak(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("GENCORPUS_SOAK"))
	if n <= 0 {
		t.Skip("set GENCORPUS_SOAK=<seeds per mix> to run the soak")
	}
	for _, mix := range gencorpus.AllMixes() {
		mix := mix
		t.Run(mix.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(n); seed++ {
				mustBuild(t, gencorpus.Generate(seed, mix))
			}
		})
	}
}
