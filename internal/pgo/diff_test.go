package pgo

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/heuristics"
	"repro/internal/interp"
)

// diffEntries is the differential corpus: all 46 real programs plus a
// seeded generated slice covering every branch-character mix.
func diffEntries() []corpus.Entry {
	entries := corpus.All()
	spec := gencorpus.Spec{Seed: 1995, N: 10, Opt: gencorpus.Options{Prints: true}}
	return append(entries, spec.Entries()...)
}

// TestGuidedOptimizationPreservesBehaviour is the pipeline's safety net:
// for every corpus and generated program, every guided configuration must
// terminate and produce bit-identical observable behaviour (printed
// outputs, float outputs, exit result) to the plain unoptimized compile.
// Subtests run in parallel, so `go test -race ./internal/pgo` doubles as a
// data-race check over the whole pipeline.
func TestGuidedOptimizationPreservesBehaviour(t *testing.T) {
	type sourceCase struct {
		name string
		mk   func(run interp.Config) SourceFactory
	}
	sources := []sourceCase{
		{"uniform", func(interp.Config) SourceFactory { return Fixed(heuristics.Fixed{}) }},
		{"heuristic", func(interp.Config) SourceFactory { return Fixed(heuristics.NewDSHCBallLarus()) }},
		{"perfect", func(run interp.Config) SourceFactory { return MeasuredFactory(run) }},
	}
	opt := DefaultOptions()
	for _, e := range diffEntries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			ast, err := e.Parse()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := codegen.Compile(ast, e.Language, codegen.Default)
			if err != nil {
				t.Fatal(err)
			}
			run := e.RunConfig()
			want, err := interp.Run(plain, run)
			if err != nil {
				t.Fatalf("unoptimized run: %v", err)
			}
			for _, sc := range sources {
				guided, err := Optimize(ast, e.Language, sc.mk(run), opt)
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				got, err := interp.Run(guided, run)
				if err != nil {
					t.Fatalf("%s: guided run: %v", sc.name, err)
				}
				if err := sameBehaviour(want, got); err != nil {
					t.Errorf("%s: %v", sc.name, err)
				}
			}
		})
	}
}

func sameBehaviour(want, got *interp.Profile) error {
	if got.Result != want.Result {
		return fmt.Errorf("result %d, want %d", got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		return fmt.Errorf("outputs diverged: got %d values, want %d", len(got.Outputs), len(want.Outputs))
	}
	if !reflect.DeepEqual(got.FOutputs, want.FOutputs) {
		return fmt.Errorf("float outputs diverged: got %d values, want %d", len(got.FOutputs), len(want.FOutputs))
	}
	return nil
}
