package main

import (
	"errors"
	"os"
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

// TestSelectorsOutOfRange checks that a selector naming nothing exits 2
// before any work, naming the flag, and writes no BENCH file.
func TestSelectorsOutOfRange(t *testing.T) {
	bin := buildTool(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-table", "9"}, "-table 9"},
		{[]string{"-table", "-1"}, "-table -1"},
		{[]string{"-figure", "3"}, "-figure 3"},
		{[]string{"-pgo", "-pgo-gen", "-1"}, "-pgo-gen -1"},
		{[]string{"-hwsim", "-hwsim-gen", "-5"}, "-hwsim-gen -5"},
	} {
		dir := t.TempDir()
		args := append([]string{"-no-cache", "-benchout", dir}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Errorf("%v: output does not name %q:\n%s", tc.args, tc.flag, out)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%v: wrote %d files to -benchout, want none", tc.args, len(files))
		}
	}
}

// TestCheckSelectors covers the range edges TestSelectorsOutOfRange does
// not: the largest table and figure pass, the next ones do not.
func TestCheckSelectors(t *testing.T) {
	for _, ok := range [][4]int{{0, 0, 0, 0}, {1, 1, 10, 10}, {7, 2, 0, 0}} {
		if err := checkSelectors(ok[0], ok[1], ok[2], ok[3]); err != nil {
			t.Errorf("checkSelectors%v = %v, want nil", ok, err)
		}
	}
	for _, bad := range [][4]int{{8, 0, 0, 0}, {0, -1, 0, 0}} {
		if err := checkSelectors(bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("checkSelectors%v = nil, want an error", bad)
		}
	}
}
