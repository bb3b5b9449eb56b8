// Command espbench regenerates every table and figure of the paper's
// evaluation from the synthetic corpus. Run with no arguments for
// everything, or select individual experiments:
//
//	espbench -table 4          # the central predictor comparison
//	espbench -figure 2         # the tomcatv hot-fragment profile
//	espbench -scheme           # the Section 3.1.2 Scheme study
//	espbench -corpussize       # the corpus-size observation
//	espbench -ablations        # design-choice ablations
//	espbench -orders           # exhaustive APHC order search
//
// With -pgo it runs the ESP-guided optimization study (simulated cycles of
// unguided vs ESP/heuristic/perfect-guided binaries) and writes
// BENCH_pgo.json:
//
//	espbench -pgo -benchout .
//
// With -hwsim it co-simulates dynamic hardware predictors (1-bit, 2-bit,
// gshare, TAGE) over the corpus branch streams, seeding their counters from
// each static hint source, alongside the branch-predictability taxonomy,
// and writes BENCH_hwsim.json:
//
//	espbench -hwsim -benchout .
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "render one table (1-7)")
	figure := flag.Int("figure", 0, "render one figure (1-2)")
	scheme := flag.Bool("scheme", false, "run the Scheme language study")
	corpusSize := flag.Bool("corpussize", false, "run the corpus-size study")
	figure2b := flag.Bool("figure2b", false, "run the Figure 2b generated-corpus-size study (opt-in: trains on up to -gen-max programs)")
	genMax := flag.Int("gen-max", 4000, "largest generated corpus size for -figure2b")
	ablations := flag.Bool("ablations", false, "run the ESP design ablations")
	orders := flag.Bool("orders", false, "run the exhaustive APHC order search")
	profileEst := flag.Bool("profileest", false, "run the Section 6 profile-estimation study")
	pgoStudy := flag.Bool("pgo", false, "run the ESP-guided optimization study and write BENCH_pgo.json")
	pgoGen := flag.Int("pgo-gen", 10, "generated programs in the -pgo study slice")
	hwsim := flag.Bool("hwsim", false, "run the hardware-predictor co-simulation and predictability taxonomy and write BENCH_hwsim.json")
	hwsimGen := flag.Int("hwsim-gen", 10, "generated programs in the -hwsim study slice")
	hidden := flag.Int("hidden", 0, "override ESP hidden-layer width")
	seed := flag.Uint64("seed", 0, "override ESP training seed")
	benchout := flag.String("benchout", ".", "directory for BENCH_<name>.json files")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default $ESPCACHE_DIR, else .espcache)")
	noCache := flag.Bool("no-cache", false, "disable the persistent analysis cache")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if err := checkSelectors(*table, *figure, *pgoGen, *hwsimGen); err != nil {
		fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
		os.Exit(2)
	}
	var genSizes []int
	if *figure2b {
		var err error
		if genSizes, err = figure2bSizes(*genMax); err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			}
		}()
	}

	var cache *artifact.Cache
	if !*noCache {
		var err error
		if cache, err = artifact.Open(artifact.DefaultDir(*cacheDir)); err != nil {
			// The cache is an optimization: an unwritable directory costs
			// warm starts, not results.
			fmt.Fprintf(os.Stderr, "espbench: %v (continuing uncached)\n", err)
		}
	}
	ctx := experiments.NewContextWithCache(cache)
	espCfg := core.Config{Hidden: *hidden, Seed: *seed}
	if *pgoStudy {
		if err := runPGOStudy(ctx, espCfg, *pgoGen, *benchout); err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *hwsim {
		if err := runHwsimStudy(ctx, espCfg, *hwsimGen, *benchout); err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	any := *table != 0 || *figure != 0 || *scheme || *corpusSize || *figure2b || *ablations || *orders || *profileEst

	run := func(name string, f func() (string, error)) {
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "espbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if !any || *table == 1 {
		run("table 1", func() (string, error) { return experiments.Table1(), nil })
	}
	if !any || *table == 2 {
		run("table 2", func() (string, error) { return experiments.Table2(), nil })
	}
	if !any || *table == 3 {
		run("table 3", func() (string, error) {
			r, err := experiments.Table3(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *table == 4 {
		run("table 4", func() (string, error) {
			r, err := experiments.Table4(ctx, espCfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *table == 5 {
		run("table 5", func() (string, error) {
			r, err := experiments.Table5(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *table == 6 {
		run("table 6", func() (string, error) {
			r, err := experiments.Table6(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *table == 7 {
		run("table 7", func() (string, error) {
			r, err := experiments.Table7(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *figure == 1 {
		run("figure 1", func() (string, error) { return experiments.Figure1(100, 20), nil })
	}
	if !any || *figure == 2 {
		run("figure 2", func() (string, error) {
			r, err := experiments.Figure2(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *scheme {
		run("scheme study", func() (string, error) {
			r, err := experiments.SchemeStudy(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *corpusSize {
		run("corpus size", func() (string, error) {
			r, err := experiments.CorpusSize(ctx, []int{8, 12, 16, 23}, espCfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	// Figure 2b is opt-in only: its largest corpus sizes train on thousands
	// of generated programs, far beyond the default everything-run's budget.
	if *figure2b {
		run("figure 2b", func() (string, error) {
			r, err := experiments.CorpusSizeGen(ctx, experiments.GenSweep{Sizes: genSizes}, espCfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *ablations {
		run("ablations", func() (string, error) {
			out := ""
			fs, err := experiments.AblationFeatureSets(ctx)
			if err != nil {
				return "", err
			}
			out += experiments.RenderAblations("Ablation: feature sets", fs) + "\n"
			hu, err := experiments.AblationHiddenUnits(ctx, []int{8, 12, 20, 32})
			if err != nil {
				return "", err
			}
			out += experiments.RenderAblations("Ablation: hidden units", hu) + "\n"
			lo, err := experiments.AblationLoss(ctx)
			if err != nil {
				return "", err
			}
			out += experiments.RenderAblations("Ablation: loss weighting", lo) + "\n"
			cl, err := experiments.AblationClassifier(ctx)
			if err != nil {
				return "", err
			}
			out += experiments.RenderAblations("Ablation: classifier", cl) + "\n"
			cp, err := experiments.AblationCallPolarity(ctx)
			if err != nil {
				return "", err
			}
			out += experiments.RenderAblations("Ablation: Call heuristic polarity", cp)
			return out, nil
		})
	}
	if !any || *orders {
		run("order search", func() (string, error) {
			r, err := experiments.APHCOrderSearch(ctx)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
	if !any || *profileEst {
		run("profile estimation", func() (string, error) {
			r, err := experiments.ProfileEstimation(ctx, espCfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
}

// checkSelectors rejects a -table or -figure that names no table or
// figure (0 selects none) and a negative generated-slice size, which would
// otherwise select nothing and exit 0, or run with no slice and record the
// negative size.
func checkSelectors(table, figure, pgoGen, hwsimGen int) error {
	switch {
	case table < 0 || table > 7:
		return fmt.Errorf("-table %d is out of range (1-7)", table)
	case figure < 0 || figure > 2:
		return fmt.Errorf("-figure %d is out of range (1-2)", figure)
	case pgoGen < 0:
		return fmt.Errorf("-pgo-gen %d is negative", pgoGen)
	case hwsimGen < 0:
		return fmt.Errorf("-hwsim-gen %d is negative", hwsimGen)
	}
	return nil
}

// figure2bSizes returns the Figure 2b corpus sizes that fit under genMax.
// It errors when none does, rather than handing GenSweep an empty list,
// which it would replace with the full default sweep.
func figure2bSizes(genMax int) ([]int, error) {
	sizes := experiments.GenSizes()
	var kept []int
	for _, s := range sizes {
		if s <= genMax {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("-gen-max %d is below the smallest Figure 2b corpus size (%d)", genMax, sizes[0])
	}
	return kept, nil
}
