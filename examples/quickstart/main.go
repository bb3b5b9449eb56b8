// Quickstart: the core ESP workflow from the paper.
//
// A corpus of programs is compiled and profiled; a neural network learns to
// map each branch's static feature set to a taken-probability; a program
// the model has never seen is then predicted from its static features
// alone, and compared against the heuristic baselines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristics"
	"repro/internal/ir"
)

func main() {
	const heldOut = "gzip"

	// 1. Build the corpus: every C-group program except the one we will
	// predict. Each program is compiled to the Alpha-like IR and executed
	// once to collect its branch profile (the paper used ATOM for this).
	var train []*core.ProgramData
	var held *core.ProgramData
	for _, e := range corpus.ByLanguage(ir.LangC) {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			log.Fatal(err)
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			log.Fatal(err)
		}
		if e.Name == heldOut {
			held = pd
			continue
		}
		train = append(train, pd)
	}

	// 2. Train ESP: static feature sets in, taken-probabilities out.
	model := core.Train(train, core.Config{})
	fmt.Printf("trained on %d programs; %d input units, %d hidden units, %d epochs\n",
		len(train), model.Encoder.Dim, model.Cfg.Hidden, model.TrainStats.Epochs)

	// 3. Predict the held-out program and compare against the baselines.
	esp := &core.Predictor{Model: model}
	fmt.Printf("\nmiss rates on held-out %q:\n", heldOut)
	for _, p := range []struct {
		label string
		pred  heuristics.Predictor
	}{
		{"BTFNT", heuristics.BTFNT{}},
		{"APHC", heuristics.NewAPHC()},
		{"DSHC(B&L)", heuristics.NewDSHCBallLarus()},
		{"ESP(neural-net)", esp},
		{"Perfect", &heuristics.Perfect{Prof: held.Profile}},
	} {
		miss := heuristics.MissRate(held.Vectors, held.Evidence(), held.Profile, p.pred)
		fmt.Printf("  %-12s %5.1f%%\n", p.label, 100*miss)
	}

	// 4. Inspect a few individual predictions.
	fmt.Println("\nhottest branch sites:")
	outcomes := heuristics.Outcomes(held.Vectors, held.Evidence(), held.Profile, esp)
	for _, o := range outcomes {
		if o.Executed < 5000 {
			continue
		}
		fmt.Printf("  %-22s executed %7d, taken %4.1f%%, ESP predicts %s\n",
			o.Ref, o.Executed, 100*float64(o.Taken)/float64(o.Executed), o.Pred)
	}
}
