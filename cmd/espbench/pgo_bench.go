package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
)

// benchFile names a study's output file, BENCH_<name>.json, in dir.
func benchFile(dir, name string) string {
	return filepath.Join(dir, "BENCH_"+name+".json")
}

// runPGOStudy runs the ESP-guided optimization study (simulated cycles for
// unguided vs ESP-, heuristic-, and perfect-guided binaries over the whole
// corpus plus a generated slice), prints the table, and writes the
// machine-readable result as BENCH_pgo.json.
func runPGOStudy(ctx *experiments.Context, espCfg core.Config, genN int, dir string) error {
	res, err := experiments.PGOStudy(ctx, espCfg, genN)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	out := benchFile(dir, "pgo")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("guided-optimization cycles -> %s\n", out)
	return nil
}
