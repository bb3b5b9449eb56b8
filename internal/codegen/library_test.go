package codegen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// testLib is a library with what the runtime library lacks: globals,
// initialized and not, that its functions and the program both use.
const testLib = `
int lib_calls;
float lib_scale = 1.5;
int lib_tab[8];

int lib_fill(int n) {
	int i;
	lib_calls = lib_calls + 1;
	for (i = 0; i < n; i = i + 1) { lib_tab[i] = i * 3; }
	return lib_tab[n - 1];
}

float lib_scaled(float x) {
	if (x < 0.0) { return 0.0 - x * lib_scale; }
	return x * lib_scale;
}
`

const testUser = `
int total;
int main() {
	int i;
	for (i = 1; i < 8; i = i + 1) { total = total + lib_fill(i); }
	if (lib_scaled(2.0) > 2.5) { total = total + lib_calls; }
	return total;
}
`

// TestLibraryLinkMatchesConcatenated: linking a library with globals gives
// the concatenated compile's program exactly, under every target (the
// global order, the register save area, unrolled library loops), and
// OptimizeLayout on one linked program leaves another program and the
// image unchanged.
func TestLibraryLinkMatchesConcatenated(t *testing.T) {
	libAST, err := minic.Parse("lib", testLib)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(libAST)
	user, err := minic.Parse("prog", testUser)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := minic.Parse("prog", testUser+testLib)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range append([]Target{MIPSCC}, Compilers...) {
		want, err := Compile(whole, ir.LangFortran, tgt)
		if err != nil {
			t.Fatal(err)
		}
		// Compile owns the AST it is given, so each link gets its own.
		got, err := lib.Compile(minic.CloneProgram(user), ir.LangFortran, tgt, guard.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tgt.Name, err)
		}
		img, err := lib.Image(ir.LangFortran, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Image != img {
			t.Fatalf("%s: linked program is not marked with its image", tgt.Name)
		}
		got.Image = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: linked program differs:\n%s\nwant:\n%s", tgt.Name, got.Disassemble(), want.Disassemble())
		}

		// Links share the image's IR; a pass that rewrites one linked
		// program unshares it first, so neither the image nor another
		// link sees the rewrite.
		got.Image = img
		imgBytes := ir.AppendCanonical(nil, &ir.Program{Funcs: img.Funcs, Globals: img.Globals})
		again, err := lib.Compile(minic.CloneProgram(user), ir.LangFortran, tgt, guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		g := &EdgeGuidance{Prob: map[ir.BranchRef]float64{}}
		for _, ref := range again.Branches() {
			g.Prob[ref] = 0.9
		}
		OptimizeLayout(again, g, LayoutOptions{})
		libOf := func(p *ir.Program) []byte {
			return ir.AppendCanonical(nil, &ir.Program{Funcs: p.Funcs[len(p.Funcs)-len(img.Funcs):]})
		}
		if again.Image != nil || bytes.Equal(libOf(again), libOf(got)) {
			t.Fatalf("%s: layout kept the mark or left the library functions alone; the check proves nothing", tgt.Name)
		}
		if got.Image = nil; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OptimizeLayout on one linked program changed another", tgt.Name)
		}
		if !bytes.Equal(ir.AppendCanonical(nil, &ir.Program{Funcs: img.Funcs, Globals: img.Globals}), imgBytes) {
			t.Fatalf("%s: OptimizeLayout on a linked program changed its image", tgt.Name)
		}
	}
}

// TestLibraryLinkRejectsCollisions: a program that redeclares a library
// name fails to link, as the concatenated source fails to compile.
func TestLibraryLinkRejectsCollisions(t *testing.T) {
	libAST, err := minic.Parse("lib", testLib)
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary(libAST)
	for _, src := range []string{
		"int lib_calls;\nint main() { return 0; }",
		"int lib_fill(int n) { return n; }\nint main() { return 0; }",
		"int lib_scaled;\nint main() { return 0; }",
		"int f() { return 0; }",
	} {
		user, err := minic.Parse("prog", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lib.Compile(user, ir.LangC, Default, guard.Limits{}); err == nil {
			t.Errorf("linked %q", src)
		}
		whole, err := minic.Parse("prog", src+testLib)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(whole, ir.LangC, Default); err == nil {
			t.Errorf("concatenated compile accepted %q", src)
		}
	}
}
