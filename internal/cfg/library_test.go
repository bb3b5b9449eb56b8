package cfg_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// library is a library image's functions analyzed alone, as Collect keeps
// them: their graphs and the recorded pointer inference.
type library struct {
	graphs []*cfg.Graph
	ptrs   *cfg.LibraryPointers
}

func newLibrary(img *ir.Image) *library {
	l := &library{graphs: make([]*cfg.Graph, len(img.Funcs))}
	byName := make(map[string]*cfg.Graph, len(img.Funcs))
	for k, fn := range img.Funcs {
		l.graphs[k] = cfg.New(fn)
		byName[fn.Name] = l.graphs[k]
	}
	l.ptrs = cfg.NewLibraryPointers(img.Funcs, byName)
	return l
}

// checkLinkedPointers fails unless the linked run's facts for every
// function of prog, a program linked against lib's image, equal those of
// a memo-free ProgramPointers over the same IR unmarked and the same
// graphs. It returns how many library functions took a recorded result
// and how many computed their own.
func checkLinkedPointers(t *testing.T, name string, lib *library, prog *ir.Program) (hits, misses int) {
	t.Helper()
	graphs := make(map[string]*cfg.Graph, len(prog.Funcs))
	for _, g := range lib.graphs {
		graphs[g.Fn.Name] = g
	}
	for _, fn := range prog.Own() {
		graphs[fn.Name] = cfg.New(fn)
	}
	got := lib.ptrs.Linked(prog, graphs)
	full := *prog
	full.Image = nil
	want := cfg.ProgramPointers(&full, graphs)
	if len(got) != len(want) {
		t.Fatalf("%s: facts for %d functions, want %d", name, len(got), len(want))
	}
	for k, fn := range prog.Funcs {
		gotPtr, gotCalls, gotRet := cfg.PointerFacts(got[fn.Name])
		wantPtr, wantCalls, wantRet := cfg.PointerFacts(want[fn.Name])
		if !reflect.DeepEqual(gotPtr, wantPtr) || !slices.Equal(gotCalls, wantCalls) || gotRet != wantRet {
			t.Fatalf("%s: facts of %s differ from the memo-free run's", name, fn.Name)
		}
		if k < len(prog.Own()) {
			continue
		}
		if cfg.Recorded(lib.ptrs, got[fn.Name]) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// TestLinkedPointersMatchProgramPointers: the facts a linked program's
// pointer inference reads from its image's recorded computes equal a
// memo-free ProgramPointers over the same IR, for every corpus program and
// one generated program per mix under every target Tables 6 and 7 use
// (codegen.Default is the first of the four compilers), and for programs
// whose own code changes a library function's inputs so the memo misses.
func TestLinkedPointersMatchProgramPointers(t *testing.T) {
	libs := make(map[*ir.Image]*library)
	libOf := func(img *ir.Image) *library {
		if libs[img] == nil {
			libs[img] = newLibrary(img)
		}
		return libs[img]
	}
	entries := corpus.All()
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Generate(3, m).Entry())
	}
	hits := 0
	for _, tgt := range append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...) {
		for _, e := range entries {
			prog, err := e.Compile(tgt)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Image == nil {
				t.Fatalf("%s/%s: not linked against the runtime library", e.Name, tgt.Name)
			}
			h, _ := checkLinkedPointers(t, e.Name+"/"+tgt.Name, libOf(prog.Image), prog)
			hits += h
		}
	}
	if hits == 0 {
		t.Fatal("no library function took a recorded result; the test proves nothing")
	}

	// The runtime library with a pointer argument: lib_checksum's inputs
	// are not the image's, so it computes its own facts.
	src := "int a[8];\nint main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i; } return lib_checksum(a, 8); }"
	prog, ok := corpus.CompileLinked("checksum", src, ir.LangC, codegen.Default, guard.Limits{})
	if !ok {
		t.Fatal("program does not link")
	}
	if _, misses := checkLinkedPointers(t, "checksum", libOf(prog.Image), prog); misses == 0 {
		t.Fatal("checksum: every library function took a recorded result")
	}

	// A library function whose entry arguments stay the image's while a
	// callee's return bit changes: lib_check passes no pointer, but the
	// program makes lib_pick return one.
	libAST, err := minic.Parse("lib", returnLib)
	if err != nil {
		t.Fatal(err)
	}
	user, err := minic.Parse("prog", returnUser)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...) {
		prog, err := codegen.NewLibrary(libAST).Compile(minic.CloneProgram(user), ir.LangC, tgt, guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if _, misses := checkLinkedPointers(t, "return/"+tgt.Name, libOf(prog.Image), prog); misses < 2 {
			t.Fatalf("return/%s: %d library functions computed their own facts, want lib_pick and lib_check", tgt.Name, misses)
		}
	}
}

// returnLib's lib_check compares what lib_pick returns with null. Alone,
// lib_pick never returns a pointer.
const returnLib = `
int* lib_pick(int* p) {
	return p;
}

int lib_check(int n) {
	int* q;
	q = lib_pick(null);
	if (q == null) { return n; }
	return 0;
}
`

const returnUser = `
int buf[4];
int main() {
	int* p;
	p = lib_pick(buf);
	return lib_check(p[0]);
}
`
