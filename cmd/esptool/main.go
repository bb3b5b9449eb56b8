// Command esptool trains, saves, loads, and applies ESP models:
//
//	esptool train -out model.json              # train on the full corpus
//	esptool train -lang FORT -out model.json   # train on one language group
//	esptool train -tree -out model.json        # decision-tree classifier
//	esptool predict -model model.json -program gzip
//	esptool rules -model model.json            # print decision-tree rules
//	esptool eval                               # all predictors on the corpus
//	esptool gencorpus -seed 1 -n 5             # emit generated MinC workloads
//	esptool train -gen 1000 -out model.json    # train on generated programs
//
// A killed `train -gen` resumes by rerunning the same command against the
// same -cache-dir: the programs analyze in shards of 64, each stored as one
// pack of records once it finishes, so finished shards are artifact-cache
// hits, the kill loses at most the shard in flight, and the model is
// bit-identical to an uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "rules":
		cmdRules(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "gencorpus":
		cmdGencorpus(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: esptool {train|predict|rules|eval|gencorpus} [flags]")
	os.Exit(2)
}

// cacheFlags registers the shared artifact-cache flags on a subcommand's
// flag set and returns a resolver to call after parsing.
func cacheFlags(fs *flag.FlagSet) func() *artifact.Cache {
	dir := fs.String("cache-dir", "", "artifact cache directory (default $ESPCACHE_DIR, else .espcache)")
	noCache := fs.Bool("no-cache", false, "disable the persistent analysis cache")
	maxBytes := fs.Int64("cache-max-bytes", 0,
		"evict least-recently-used cache entries past this size (0 = unbounded)")
	return func() *artifact.Cache {
		if *noCache {
			return nil
		}
		c, err := artifact.Open(artifact.DefaultDir(*dir))
		if err != nil {
			fmt.Fprintf(os.Stderr, "esptool: %v (continuing uncached)\n", err)
			return nil
		}
		c.SetMaxBytes(*maxBytes)
		return c
	}
}

// analyzeCorpus profiles a set of corpus entries, serving warm programs
// from the artifact cache.
func analyzeCorpus(entries []corpus.Entry, cache *artifact.Cache) []*core.ProgramData {
	var out []*core.ProgramData
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			fatal(err)
		}
		pd, err := core.AnalyzeCached(cache, prog, e.Language, e.RunConfig())
		if err != nil {
			fatal(err)
		}
		out = append(out, pd)
	}
	return out
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "esp-model.json", "output model file")
	lang := fs.String("lang", "", "restrict corpus to one language (C or FORT)")
	tree := fs.Bool("tree", false, "train the decision-tree classifier")
	hidden := fs.Int("hidden", 0, "hidden units (default 12)")
	seed := fs.Uint64("seed", 0, "training seed (default 1)")
	exclude := fs.String("exclude", "", "program to hold out of the corpus")
	genN := fs.Int("gen", 0, "train on this many generated programs instead of the real corpus")
	genSeed := fs.Int64("gen-seed", 1, "generated-corpus base seed")
	genMix := fs.String("gen-mix", "", "restrict generation to one mix (default: cycle all)")
	cache := cacheFlags(fs)
	mustParse(fs, args)

	// A flag the chosen corpus would ignore is a usage error, so a typo
	// cannot silently train on the wrong programs.
	fs.Visit(func(f *flag.Flag) {
		switch gen := *genN > 0; {
		case gen && (f.Name == "lang" || f.Name == "exclude"):
			usageError("train: -%s does not apply to -gen", f.Name)
		case !gen && strings.HasPrefix(f.Name, "gen-"):
			usageError("train: -%s needs -gen", f.Name)
		case f.Name == "gen" && *genN < 0:
			usageError("train: -gen %d is negative", *genN)
		}
	})
	var entries []corpus.Entry
	if *genN <= 0 {
		entries = studyEntries(*lang, *exclude)
	}

	cfg := core.Config{Hidden: *hidden, Seed: *seed}
	if *tree {
		cfg.Classifier = core.DecisionTree
	}

	var model *core.Model
	var programs, examples int
	if *genN > 0 {
		spec := gencorpus.Spec{Seed: *genSeed, N: *genN}
		if *genMix != "" {
			m, err := gencorpus.ParseMix(*genMix)
			if err != nil {
				fatal(err)
			}
			spec.Mixes = []gencorpus.Mix{m}
		}
		src := &gencorpus.ShardedCorpus{Entries: spec.Entries(), Cache: cache()}
		exs, err := src.Examples()
		if err != nil {
			fatal(err)
		}
		model = core.TrainExamples(exs, cfg)
		programs, examples = *genN, len(exs)
	} else {
		data := analyzeCorpus(entries, cache())
		model = core.Train(data, cfg)
		programs, examples = len(data), countExamples(data)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("trained %s on %d programs (%d examples dim=%d) -> %s\n",
		cfg.Classifier, programs, examples, model.Encoder.Dim, *out)
	if cfg.Classifier == core.NeuralNet {
		fmt.Printf("epochs=%d best thresholded error=%.4f\n",
			model.TrainStats.Epochs, model.TrainStats.BestThresholded)
	}
}

// studyEntries returns the study programs in language group lang (all of
// them when lang is empty) minus the program named exclude. Either flag
// matching nothing is a usage error.
func studyEntries(lang, exclude string) []corpus.Entry {
	entries := corpus.Study()
	if lang != "" {
		entries = corpus.ByLanguage(ir.Language(lang))
		if len(entries) == 0 {
			usageError("train: -lang %q matches no program (want %s or %s)", lang, ir.LangC, ir.LangFortran)
		}
	}
	var kept []corpus.Entry
	for _, e := range entries {
		if e.Name != exclude {
			kept = append(kept, e)
		}
	}
	if exclude != "" && len(kept) == len(entries) {
		usageError("train: -exclude %q names no program in the training corpus", exclude)
	}
	return kept
}

// cmdGencorpus emits generated workloads. The output is a pure function of
// the flags — byte-identical across invocations and machines — so it can be
// diffed, archived, and replayed.
func cmdGencorpus(args []string) {
	fs := flag.NewFlagSet("gencorpus", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "base seed")
	n := fs.Int("n", 1, "number of programs")
	mix := fs.String("mix", "", "restrict to one mix: loop-heavy, pointer-chasing, recursion-heavy, call-dense, mixed (default: cycle all)")
	prints := fs.Bool("prints", false, "instrument programs with __print statements")
	list := fs.Bool("list", false, "print one metadata line per program instead of sources")
	mustParse(fs, args)

	spec := gencorpus.Spec{Seed: *seed, N: *n, Opt: gencorpus.Options{Prints: *prints}}
	if *mix != "" {
		m, err := gencorpus.ParseMix(*mix)
		if err != nil {
			fatal(err)
		}
		spec.Mixes = []gencorpus.Mix{m}
	}
	for i := 0; i < spec.N; i++ {
		p := spec.Program(i)
		if *list {
			fmt.Printf("%s seed=%d runseed=%d input=%v bytes=%d\n",
				p.Name, p.Seed, p.RunSeed, p.Input, len(p.Source))
			continue
		}
		fmt.Printf("// program: %s\n// seed: %d  runseed: %d  input: %v\n%s\n", p.Name, p.Seed, p.RunSeed, p.Input, p.Source)
	}
}

func countExamples(data []*core.ProgramData) int {
	n := 0
	for _, pd := range data {
		n += len(pd.Examples())
	}
	return n
}

func loadModel(path string) *core.Model {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		fatal(err)
	}
	return m
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "esp-model.json", "model file")
	program := fs.String("program", "", "corpus program to predict")
	verbose := fs.Bool("v", false, "print per-site predictions")
	cache := cacheFlags(fs)
	mustParse(fs, args)

	e, ok := corpus.ByName(*program)
	if !ok {
		fatal(fmt.Errorf("unknown corpus program %q", *program))
	}
	model := loadModel(*modelPath)
	data := analyzeCorpus([]corpus.Entry{e}, cache())[0]
	pred := &core.Predictor{Model: model}
	miss := heuristics.MissRate(data.Vectors, data.Evidence(), data.Profile, pred)
	aphc := heuristics.MissRate(data.Vectors, data.Evidence(), data.Profile, heuristics.NewAPHC())
	fmt.Printf("%s: ESP miss %s%%  (APHC %s%%, BTFNT %s%%)\n", e.Name,
		stats.Pct1(miss), stats.Pct1(aphc),
		stats.Pct1(heuristics.MissRate(data.Vectors, data.Evidence(), data.Profile, heuristics.BTFNT{})))
	if *verbose {
		for _, o := range heuristics.Outcomes(data.Vectors, data.Evidence(), data.Profile, pred) {
			if o.Executed == 0 {
				continue
			}
			fmt.Printf("  %-24s exec=%8d taken=%5.2f predicted=%s\n",
				o.Ref, o.Executed, float64(o.Taken)/float64(o.Executed), o.Pred)
		}
	}
}

func cmdRules(args []string) {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	modelPath := fs.String("model", "esp-model.json", "model file")
	mustParse(fs, args)
	model := loadModel(*modelPath)
	if model.Tree == nil {
		fatal(fmt.Errorf("model %s is not a decision tree; train with -tree", *modelPath))
	}
	for _, r := range model.Tree.Rules() {
		fmt.Println(r)
	}
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	cache := cacheFlags(fs)
	mustParse(fs, args)
	data := analyzeCorpus(corpus.Study(), cache())
	t := stats.NewTable("Program", "BTFNT", "APHC", "Perfect")
	for _, pd := range data {
		t.Row(pd.Name,
			stats.Pct(heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, heuristics.BTFNT{})),
			stats.Pct(heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, heuristics.NewAPHC())),
			stats.Pct(heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, &heuristics.Perfect{Prof: pd.Profile})))
	}
	fmt.Print(t.String())
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

// usageError reports flags the subcommand cannot honour and exits with the
// status of a flag parse error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "esptool: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esptool:", err)
	os.Exit(1)
}
