// Profile estimation: the paper's stated next step (Section 6): "Our next
// goal will be to incorporate this branch probability data to perform
// program-based profile estimation using ESP."
//
// ESP's output unit is a probability, not just a bit. This example uses the
// predicted probabilities of a held-out program as a static branch profile
// and scores them against the measured profile, comparing ESP's estimates
// with the Dempster-Shafer heuristic probabilities of Wu and Larus.
//
// Run with: go run ./examples/profileestimation [program]
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/ir"
)

func main() {
	name := "grep"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	heldEntry, ok := corpus.ByName(name)
	if !ok {
		log.Fatalf("unknown corpus program %q", name)
	}

	// Train on the held-out program's language group, excluding it.
	var train []*core.ProgramData
	var held *core.ProgramData
	group := corpus.ByLanguage(heldEntry.Language)
	if heldEntry.Language == ir.LangScheme {
		group = corpus.BySuite(corpus.SuiteScheme)
	}
	for _, e := range group {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			log.Fatal(err)
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			log.Fatal(err)
		}
		if e.Name == name {
			held = pd
		} else {
			train = append(train, pd)
		}
	}
	if held == nil {
		log.Fatalf("%q not in its language group", name)
	}
	model := core.Train(train, core.Config{})
	dshc := heuristics.NewDSHCBallLarus()

	// Score both estimators' probabilities against the real profile:
	// execution-weighted mean absolute error of the taken-probability.
	var espErr, dshcErr, uniformErr, total float64
	fmt.Printf("static profile estimation for %q (hottest sites):\n", name)
	fmt.Printf("%-24s %9s %8s %8s %8s\n", "branch", "executed", "actual", "ESP", "DSHC")
	ev := held.Evidence()
	for i, v := range held.Vectors {
		c := held.Profile.Branches[v.Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		w := float64(c.Executed)
		actual := c.TakenFraction()
		esp := model.TakenProbability(v)
		dp, _ := dshc.Prob(&held.Vectors[i], &ev[i])
		espErr += w * math.Abs(esp-actual)
		dshcErr += w * math.Abs(dp-actual)
		uniformErr += w * math.Abs(0.5-actual)
		total += w
		if c.Executed >= held.Profile.CondExec/20 {
			fmt.Printf("%-24s %9d %8.2f %8.2f %8.2f\n",
				v.Ref, c.Executed, actual, esp, dp)
		}
	}
	fmt.Printf("\nexecution-weighted |p_estimated - p_actual|:\n")
	fmt.Printf("  ESP probabilities          %.3f\n", espErr/total)
	fmt.Printf("  DSHC (Wu/Larus) evidence   %.3f\n", dshcErr/total)
	fmt.Printf("  uninformed 0.5 baseline    %.3f\n", uniformErr/total)
}
