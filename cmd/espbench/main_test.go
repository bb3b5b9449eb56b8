package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "espbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestDefinitionalTables(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-table", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("-table 1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Loop Branch") {
		t.Errorf("Table 1 incomplete:\n%s", out)
	}
	out, err = exec.Command(bin, "-table", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("-table 2: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "br.opcode") {
		t.Errorf("Table 2 incomplete:\n%s", out)
	}
	out, err = exec.Command(bin, "-figure", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("-figure 1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hidden") {
		t.Errorf("Figure 1 incomplete:\n%s", out)
	}
}

func TestMeasuredTable(t *testing.T) {
	if testing.Short() {
		t.Skip("measured table in short mode")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "-table", "7").CombinedOutput()
	if err != nil {
		t.Fatalf("-table 7: %v\n%s", err, out)
	}
	for _, want := range []string{"espresso", "gem", "gcc"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("Table 7 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2bSizes(t *testing.T) {
	for _, max := range []int{0, 10, 45} {
		if got, err := figure2bSizes(max); err == nil {
			t.Errorf("figure2bSizes(%d) = %v, want an error", max, got)
		}
	}
	for max, want := range map[int][]int{
		46:   {46},
		300:  {46, 100, 250},
		4000: {46, 100, 250, 500, 1000, 2000, 4000},
	} {
		got, err := figure2bSizes(max)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("figure2bSizes(%d) = %v, %v; want %v", max, got, err, want)
		}
	}
}
