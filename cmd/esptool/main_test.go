package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "esptool")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestTrainPredictRulesRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tool test in short mode")
	}
	bin := buildTool(t)
	model := filepath.Join(t.TempDir(), "model.json")

	// Train a decision tree on the Fortran group, holding tomcatv out.
	out, err := exec.Command(bin, "train", "-tree", "-lang", "FORT",
		"-exclude", "tomcatv", "-out", model).CombinedOutput()
	if err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "decision-tree") {
		t.Errorf("train output missing classifier:\n%s", out)
	}

	// Predict the held-out program.
	out, err = exec.Command(bin, "predict", "-model", model, "-program", "tomcatv").CombinedOutput()
	if err != nil {
		t.Fatalf("predict: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ESP miss") || !strings.Contains(string(out), "APHC") {
		t.Errorf("predict output incomplete:\n%s", out)
	}

	// Print the learned rules.
	out, err = exec.Command(bin, "rules", "-model", model).CombinedOutput()
	if err != nil {
		t.Fatalf("rules: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "predict") {
		t.Errorf("rules output empty:\n%s", out)
	}
}

// TestTrainRejectsIgnoredFlags requires every flag train would otherwise
// ignore to be a usage error (exit 2) that names the flag and writes no
// model.
func TestTrainRejectsIgnoredFlags(t *testing.T) {
	bin := buildTool(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-lang", "XYZ"}, "-lang"},
		{[]string{"-lang", "SCHEME"}, "-lang"},
		{[]string{"-exclude", "nosuch"}, "-exclude"},
		{[]string{"-lang", "FORT", "-exclude", "gzip"}, "-exclude"},
		{[]string{"-gen", "5", "-lang", "C"}, "-lang"},
		{[]string{"-gen", "5", "-exclude", "gzip"}, "-exclude"},
		{[]string{"-gen-mix", "mixed"}, "-gen-mix"},
		{[]string{"-gen-seed", "3"}, "-gen-seed"},
		{[]string{"-gen", "-1"}, "-gen"},
	} {
		model := filepath.Join(t.TempDir(), "model.json")
		args := append([]string{"train", "-no-cache", "-out", model}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Errorf("%v: message does not name %s:\n%s", tc.args, tc.flag, out)
		}
		if _, err := os.Stat(model); err == nil {
			t.Errorf("%v: wrote the -out file", tc.args)
		}
	}
}

// TestTrainGenRerunBitIdentical trains on generated programs twice against
// one cache directory. The rerun, which is how a killed run resumes, reads
// every analysis back from the cache and must write the same model bytes.
func TestTrainGenRerunBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tool test in short mode")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	var models [2][]byte
	for i := range models {
		model := filepath.Join(dir, "model.json")
		out, err := exec.Command(bin, "train", "-tree", "-gen", "12",
			"-cache-dir", cacheDir, "-out", model).CombinedOutput()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out)
		}
		if !strings.Contains(string(out), "on 12 programs") {
			t.Errorf("run %d output does not report 12 programs:\n%s", i, out)
		}
		if models[i], err = os.ReadFile(model); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Error("the rerun against a warm cache wrote a different model")
	}
	// The 12 programs are one shard: one pack holds their records, one
	// source-index entry lists them, and no program has a file of its own.
	packs, _ := filepath.Glob(filepath.Join(cacheDir, "*.espa"))
	index, _ := filepath.Glob(filepath.Join(cacheDir, "*.espi"))
	all, _ := os.ReadDir(cacheDir)
	if len(packs) != 1 || len(index) != 1 || len(all) != 2 {
		t.Fatalf("cache holds %d .espa, %d .espi and %d files; want one pack and one index entry", len(packs), len(index), len(all))
	}
	if data, err := os.ReadFile(packs[0]); err != nil || !bytes.HasPrefix(data, []byte("ESPK")) {
		t.Errorf("the one .espa file is not a pack (%v)", err)
	}
}

func TestPredictUnknownProgram(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "predict", "-model", "nope.json", "-program", "nonesuch").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown program accepted:\n%s", out)
	}
}

func TestUsage(t *testing.T) {
	bin := buildTool(t)
	if out, err := exec.Command(bin).CombinedOutput(); err == nil {
		t.Errorf("no-argument run must fail with usage:\n%s", out)
	}
	if out, err := exec.Command(bin, "frobnicate").CombinedOutput(); err == nil {
		t.Errorf("unknown subcommand accepted:\n%s", out)
	}
}
