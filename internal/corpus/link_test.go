package corpus_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// linkTargets are the targets the reproduction compiles for: the default,
// the MIPS-style study target, and the four Table 7 compilers.
var linkTargets = append([]codegen.Target{codegen.Default, codegen.MIPSCC}, codegen.Compilers...)

// concatCompile is the oracle: the concatenated source parsed and compiled
// under lim, as every caller compiled before the library was linked. The
// error text carries serve's "parse: "/"compile: " prefixes.
func concatCompile(name, src string, lang ir.Language, tgt codegen.Target, lim guard.Limits) (*ir.Program, error) {
	ast, err := minic.ParseWithLimits(name, src+corpus.StdlibSource+corpus.Stdlib2Source, minic.Limits{MaxDepth: lim.ParseDepth})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := codegen.CompileBounded(ast, lang, tgt, lim)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return prog, nil
}

// linkOrConcat is the production shape (Entry.Compile, serve): the linked
// compile, falling back to the concatenated one on any failure.
func linkOrConcat(name, src string, lang ir.Language, tgt codegen.Target, lim guard.Limits) (*ir.Program, bool, error) {
	if prog, ok := corpus.CompileLinked(name, src, lang, tgt, lim); ok {
		return prog, true, nil
	}
	prog, err := concatCompile(name, src, lang, tgt, lim)
	return prog, false, err
}

// checkLink compares linkOrConcat with the oracle: the same error string,
// or byte-identical canonical IR. It reports whether the linked path was
// taken.
func checkLink(t testing.TB, name, src string, lang ir.Language, tgt codegen.Target, lim guard.Limits) bool {
	t.Helper()
	got, linked, gotErr := linkOrConcat(name, src, lang, tgt, lim)
	want, wantErr := concatCompile(name, src, lang, tgt, lim)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s/%s %+v: linked error %v, concatenated error %v", name, tgt.Name, lim, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s/%s %+v: error %q, want %q", name, tgt.Name, lim, gotErr, wantErr)
		}
	case !bytes.Equal(ir.AppendCanonical(nil, got), ir.AppendCanonical(nil, want)):
		t.Fatalf("%s/%s %+v: linked IR differs from the concatenated compile", name, tgt.Name, lim)
	case linked:
		checkShared(t, name+"/"+tgt.Name, got, want)
	}
	return linked
}

// checkShared compares the analysis of a linked program, which shares its
// library image's, with the full analysis of the concatenated compile:
// the same sites with the same conditions and source locations, and the
// same vectors.
func checkShared(t testing.TB, name string, linked, concat *ir.Program) {
	t.Helper()
	if linked.Image == nil {
		t.Fatalf("%s: linked program is not marked with its library image", name)
	}
	got, want := features.Collect(linked), features.Collect(concat)
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d sites linked, %d concatenated", name, len(got.Sites), len(want.Sites))
	}
	for i, s := range got.Sites {
		w := want.Sites[i]
		if s.Ref != w.Ref || s.Cond != w.Cond || s.ProcType != w.ProcType || !slices.Equal(s.SourceLocs, w.SourceLocs) {
			t.Fatalf("%s: site %s differs from the concatenated compile's", name, s.Ref)
		}
	}
	if !slices.Equal(features.ExtractAll(got), features.ExtractAll(want)) {
		t.Fatalf("%s: vectors differ from the concatenated compile's", name)
	}
}

// TestLinkMatchesConcatenated: for every corpus program and a generated
// program per mix, under every target, the linked compile takes the fast
// path and is identical to compiling the concatenated source, down to
// reflect.DeepEqual of the IR.
func TestLinkMatchesConcatenated(t *testing.T) {
	entries := corpus.All()
	for _, p := range (gencorpus.Spec{Seed: 1, N: len(gencorpus.AllMixes())}).Programs() {
		entries = append(entries, p.Entry())
	}
	for _, e := range entries {
		for _, tgt := range linkTargets {
			if !checkLink(t, e.Name, e.Source, e.Language, tgt, guard.Limits{}) {
				t.Fatalf("%s/%s: linked compile fell back to the concatenated source", e.Name, tgt.Name)
			}
			got, err := e.Compile(tgt)
			if err != nil {
				t.Fatal(err)
			}
			ast, err := e.Parse()
			if err != nil {
				t.Fatal(err)
			}
			want, err := codegen.Compile(ast, e.Language, tgt)
			if err != nil {
				t.Fatal(err)
			}
			img, err := corpus.LibraryImage(e.Language, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Image != img {
				t.Fatalf("%s/%s: Entry.Compile is not marked with the runtime library image", e.Name, tgt.Name)
			}
			got.Image = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Entry.Compile is not DeepEqual to the concatenated compile", e.Name, tgt.Name)
			}
		}
	}
}

// TestLinkFallsBack: inputs the linked path must not answer — library name
// collisions, NUL bytes, unterminated comments, a missing main, and limits
// the program or the library itself violates — give exactly the
// concatenated compile's error, and Entry.Compile keeps its error text.
func TestLinkFallsBack(t *testing.T) {
	deep := "int main() { return " + strings.Repeat("(", 40) + "1" + strings.Repeat(")", 40) + "; }"
	var wide strings.Builder
	wide.WriteString("int main() { int x; x = 0; ")
	for i := 0; i < 200; i++ {
		wide.WriteString("if (x) { __print(x); } ")
	}
	wide.WriteString("return x; }")
	cases := []struct {
		name, src string
		lim       guard.Limits
	}{
		{"redefines-lib-func", "int lib_abs(int x) { return x; }\nint main() { return 0; }", guard.Limits{}},
		{"global-named-lib-func", "int lib_max;\nint main() { return 0; }", guard.Limits{}},
		{"nul-byte", "int main() { return 0; }\x00", guard.Limits{}},
		{"unterminated-comment", "int main() { return 0; }\n/* never closed", guard.Limits{}},
		{"no-main", "int f() { return lib_abs(0 - 3); }", guard.Limits{}},
		{"undefined-call", "int main() { return lib_nope(1); }", guard.Limits{}},
		{"user-over-depth", deep, guard.Limits{ParseDepth: 20}},
		{"user-over-cfg", wide.String(), guard.Limits{CFGBlocks: 300}},
		{"lib-over-depth", "int main() { return 0; }", guard.Limits{ParseDepth: 3}},
		{"lib-over-cfg", "int main() { return 0; }", guard.Limits{CFGBlocks: 4}},
	}
	for _, tc := range cases {
		for _, tgt := range linkTargets {
			if checkLink(t, tc.name, tc.src, ir.LangC, tgt, tc.lim) {
				t.Fatalf("%s/%s: linked compile accepted an input it must refuse", tc.name, tgt.Name)
			}
		}
		if tc.lim != (guard.Limits{}) {
			continue
		}
		e := corpus.Entry{Name: tc.name, Language: ir.LangC, Source: tc.src}
		_, got := e.Compile(codegen.Default)
		var want error
		if ast, err := e.Parse(); err != nil {
			want = err
		} else if _, err := codegen.Compile(ast, e.Language, codegen.Default); err != nil {
			want = fmt.Errorf("corpus: %s: %w", e.Name, err)
		}
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: Entry.Compile error %v, want %v", tc.name, got, want)
		}
	}
	// Generous limits that both parts meet keep the fast path.
	if !checkLink(t, "small", "int main() { return lib_abs(0 - 2); }", ir.LangC, codegen.Default,
		guard.Limits{ParseDepth: 256, CFGBlocks: 100000}) {
		t.Fatal("linked compile fell back under limits the program and library meet")
	}
}

// TestLinkConcurrent links programs for several (language, target) pairs
// from many goroutines at once, so first-use library builds race with
// links that read the shared image, and each worker unshares and writes
// its program's library functions. make race runs it under the detector;
// TestMain checks that the images are unchanged.
func TestLinkConcurrent(t *testing.T) {
	entries := corpus.All()[:8]
	langs := []ir.Language{ir.LangC, ir.LangFortran, ir.LangScheme}
	want := make(map[string][]byte)
	for _, e := range entries {
		for _, lang := range langs {
			for _, tgt := range linkTargets[1:] {
				ast, err := e.Parse()
				if err != nil {
					t.Fatal(err)
				}
				prog, err := codegen.Compile(ast, lang, tgt)
				if err != nil {
					t.Fatal(err)
				}
				want[e.Name+"/"+string(lang)+"/"+tgt.Name] = ir.AppendCanonical(nil, prog)
			}
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers) // each worker sends at most once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				e := entries[(w+i)%len(entries)]
				lang := langs[(w+i)%len(langs)]
				tgt := linkTargets[1+(w*5+i)%(len(linkTargets)-1)]
				prog, ok := corpus.CompileLinked(e.Name, e.Source, lang, tgt, guard.Limits{})
				if !ok {
					errs <- e.Name + ": fell back"
					return
				}
				// Linked programs share the image's IR; a writer unshares
				// first and then owns every function it writes.
				prog.Unshare()
				prog.Funcs[len(prog.Funcs)-1].Blocks[0].Insns[0].Imm++
				prog.Funcs[len(prog.Funcs)-1].Blocks[0].Insns[0].Imm--
				if !bytes.Equal(ir.AppendCanonical(nil, prog), want[e.Name+"/"+string(lang)+"/"+tgt.Name]) {
					errs <- e.Name + "/" + tgt.Name + ": linked IR differs"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// FuzzLink: for any source, with no limits and under small depth and CFG
// limits, the linked compile (with its fallback) and the concatenated
// compile return the same error string or identical canonical IR.
//
// CI runs this for a short budget (go test -fuzz=FuzzLink -fuzztime=20s).
func FuzzLink(f *testing.F) {
	for _, e := range corpus.All() {
		f.Add(e.Source)
	}
	f.Add(corpus.StdlibSource)
	f.Add(corpus.Stdlib2Source)
	f.Add("int main() { return 0; }")
	f.Add(`int main() { /* unterminated`)
	f.Add(`int main() { float f; f = 1e999999; return (int)f; }`)
	f.Add("int x = 99999999999999999999999999999;")
	f.Add("void f(" + string(rune(0)) + ") {}")
	f.Add("int lib_abs(int x) { return x; }\nint main() { return 0; }")
	limits := []guard.Limits{{}, {ParseDepth: 6, CFGBlocks: 12}, {ParseDepth: 24, CFGBlocks: 64}}
	f.Fuzz(func(t *testing.T, src string) {
		for _, lim := range limits {
			checkLink(t, "fuzz", src, ir.LangC, codegen.Default, lim)
		}
		checkLink(t, "fuzz", src, ir.LangFortran, codegen.AlphaGEM, guard.Limits{})
	})
}

// BenchmarkEntryCompile times Entry.Compile (the linked compile) against
// the concatenated oracle, on one corpus program and one generated program.
func BenchmarkEntryCompile(b *testing.B) {
	gzip, _ := corpus.ByName("gzip")
	gen := (gencorpus.Spec{Seed: 5, N: 1}).Program(0).Entry()
	for _, e := range []corpus.Entry{gzip, gen} {
		b.Run("linked/"+e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Compile(codegen.Default); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("concatenated/"+e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := concatCompile(e.Name, e.Source, e.Language, codegen.Default, guard.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
