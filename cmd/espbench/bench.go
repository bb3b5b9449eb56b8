package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/minic"
	"repro/internal/neural"
)

// benchResult is the machine-readable form of one micro-benchmark, written
// as BENCH_<name>.json so the perf trajectory of the hot paths is tracked
// across PRs.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchFile names the output file for one benchmark.
func benchFile(dir, name string) string {
	return filepath.Join(dir, "BENCH_"+name+".json")
}

// writeBench serializes one benchmark result. Split from the runner so the
// emitter is testable without running benchmarks.
func writeBench(dir, name string, r testing.BenchmarkResult) error {
	out := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchFile(dir, name), append(data, '\n'), 0o644)
}

// benchRegistry maps benchmark names to their bodies. Each body is handed a
// *testing.B by testing.Benchmark.
func benchRegistry() (map[string]func(b *testing.B), error) {
	e, ok := corpus.ByName("gzip")
	if !ok {
		return nil, fmt.Errorf("corpus program gzip missing")
	}
	src := e.Source + corpus.StdlibSource + corpus.Stdlib2Source

	// The derived fixtures are built lazily so `-bench parse` does not pay
	// for compilation or analysis.
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		return nil, err
	}
	pd, err := core.Analyze(prog, e.Language, e.RunConfig())
	if err != nil {
		return nil, err
	}
	enc := features.NewEncoder(pd.Vectors)
	var model *core.Model

	return map[string]func(b *testing.B){
		"parse": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := minic.Parse(e.Name, src); err != nil {
					b.Fatal(err)
				}
			}
		},
		"profile": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog, e.Language, e.RunConfig()); err != nil {
					b.Fatal(err)
				}
			}
		},
		"encode": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc.EncodeAllSparse(pd.Vectors)
			}
		},
		"forward": func(b *testing.B) {
			// The production float prediction path on a default-config
			// model trained on the program itself. testing.Benchmark calls
			// this body once per trial b.N, so train only once.
			if model == nil {
				model = core.Train([]*core.ProgramData{pd}, core.Config{})
			}
			out := make([]float64, len(pd.Vectors))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.TakenProbabilities(pd.Vectors, out)
			}
		},
		"train": func(b *testing.B) {
			examples := pd.Examples()
			vecs := make([]features.Vector, len(examples))
			targets := make([]float64, len(examples))
			weights := make([]float64, len(examples))
			for i, ex := range examples {
				vecs[i], targets[i], weights[i] = ex.Vector, ex.Target, ex.Weight
			}
			xs := enc.EncodeAllSparse(vecs)
			cfg := neural.Config{
				Inputs: enc.Dim, Hidden: 12, Seed: 1,
				MaxEpochs: 40, Patience: 40,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := neural.New(cfg)
				net.TrainCSR(cfg, xs, targets, weights)
			}
		},
	}, nil
}

// runBenchSuite runs the selected benchmarks (comma-separated names, or
// "all") and writes one BENCH_<name>.json per benchmark into dir.
func runBenchSuite(selection, dir string) error {
	reg, err := benchRegistry()
	if err != nil {
		return err
	}
	var names []string
	if selection == "all" {
		for name := range reg {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		names = strings.Split(selection, ",")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		body, ok := reg[name]
		if !ok {
			return fmt.Errorf("unknown benchmark %q (have: parse, profile, encode, forward, train)", name)
		}
		r := testing.Benchmark(body)
		if err := writeBench(dir, name, r); err != nil {
			return err
		}
		fmt.Printf("%s: %d iterations, %.0f ns/op, %d B/op, %d allocs/op -> %s\n",
			name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
			r.AllocedBytesPerOp(), r.AllocsPerOp(), benchFile(dir, name))
	}
	return nil
}

// runStages times the offline analysis pipeline per stage (compile, trace,
// featurize, train) over the full study corpus, prints the table, and writes
// BENCH_stages.json next to the micro-benchmark numbers. Unlike the
// benchmarks above it runs each program once — the interest is the relative
// cost split, not steady-state ns/op.
func runStages(dir string, espCfg core.Config) error {
	rep, err := experiments.AnalysisStages(corpus.Study(), espCfg)
	if err != nil {
		return err
	}
	fmt.Println(rep.Render())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	out := benchFile(dir, "stages")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("per-stage timings -> %s\n", out)
	return nil
}
