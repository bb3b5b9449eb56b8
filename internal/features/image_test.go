package features_test

// Differential and contract tests of the shared library analysis: Collect
// and ExtractAll on a program linked against a library image must equal the
// full analysis of the same IR with the mark removed.

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// unmarked returns prog without its image mark, sharing its IR.
func unmarked(prog *ir.Program) *ir.Program {
	p := *prog
	p.Image = nil
	return &p
}

// ownOracle returns the vectors of vecs, a program's vectors in site
// order, that belong to its own functions rather than to img's (all of
// them for a nil img), filtered by name: the oracle of ExtractOwn.
func ownOracle(img *ir.Image, vecs []features.Vector) []features.Vector {
	var out []features.Vector
	for _, v := range vecs {
		if img == nil || !slices.ContainsFunc(img.Funcs, func(f *ir.Func) bool { return f.Name == v.Ref.Func }) {
			out = append(out, v)
		}
	}
	return out
}

// sameAnalysis fails unless the shared path's sites, graphs, pointer facts
// and vectors for prog equal a full Collect and ExtractAll of its IR
// unmarked, its own vectors equal the full vectors less the image's
// functions', and the program's record splices back to the full vectors.
// It returns the shared ProgramSites.
func sameAnalysis(t *testing.T, name string, prog *ir.Program) *features.ProgramSites {
	t.Helper()
	got := features.Collect(prog)
	gotVecs := features.ExtractAll(got)
	want := features.Collect(unmarked(prog))
	wantVecs := features.ExtractAll(want)

	if len(got.Graphs) != len(want.Graphs) || len(got.Ptrs) != len(want.Ptrs) {
		t.Fatalf("%s: %d graphs and %d pointer infos, want %d and %d",
			name, len(got.Graphs), len(got.Ptrs), len(want.Graphs), len(want.Ptrs))
	}
	for _, fn := range prog.Funcs {
		g, w := got.Graphs[fn.Name], want.Graphs[fn.Name]
		if g == nil || g.Fn != fn || !slices.Equal(g.Blocks, w.Blocks) ||
			!reflect.DeepEqual(g.Succ, w.Succ) || !reflect.DeepEqual(g.Pred, w.Pred) ||
			!slices.Equal(g.Idom(), w.Idom()) || !slices.Equal(g.Ipdom(), w.Ipdom()) ||
			!reflect.DeepEqual(g.Loops(), w.Loops()) {
			t.Fatalf("%s: graph of %s differs from the full path's", name, fn.Name)
		}
		if !got.Ptrs[fn.Name].SameFacts(want.Ptrs[fn.Name]) {
			t.Fatalf("%s: pointer facts of %s differ from the full path's", name, fn.Name)
		}
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d sites, want %d", name, len(got.Sites), len(want.Sites))
	}
	for i, s := range got.Sites {
		w := want.Sites[i]
		if s.Ref != w.Ref || s.Fn != w.Fn || s.G != got.Graphs[s.Fn.Name] || s.G.Fn != s.Fn ||
			s.BlockIdx != w.BlockIdx || s.TakenIdx != w.TakenIdx || s.FallIdx != w.FallIdx ||
			s.Branch != w.Branch || s.DefInstr != w.DefInstr || s.DefIdx != w.DefIdx ||
			s.Cond != w.Cond || s.ProcType != w.ProcType || !slices.Equal(s.SourceLocs, w.SourceLocs) {
			t.Fatalf("%s: site %s differs from the full path's:\n got %+v\nwant %+v", name, s.Ref, *s, *w)
		}
	}
	if !slices.Equal(gotVecs, wantVecs) {
		t.Fatalf("%s: vectors differ from the full path's", name)
	}
	own := features.ExtractOwn(got)
	if !slices.Equal(own, ownOracle(prog.Image, wantVecs)) {
		t.Fatalf("%s: own vectors differ from the full path's less the image's", name)
	}
	rec := artifact.NewRecord(prog, nil, own)
	if lib, ok := rec.ImageFor(prog.Image); !ok || lib != prog.Image {
		t.Fatalf("%s: record does not take the program's image", name)
	}
	if !slices.Equal(features.SpliceVectors(prog.Image, rec.Vectors), wantVecs) {
		t.Fatalf("%s: spliced record vectors differ from the full path's", name)
	}
	return got
}

// TestSharedLibraryMatchesFullCollect: for every corpus program and one
// generated program per mix, under every target Tables 6 and 7 use
// (codegen.Default is AlphaCC, the first of the four compilers), the shared
// library path equals the full analysis, and it does share: most library
// functions with sites take the image's.
func TestSharedLibraryMatchesFullCollect(t *testing.T) {
	entries := corpus.All()
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Generate(3, m).Entry())
	}
	for _, tgt := range append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...) {
		shared, libFuncs := 0, 0
		for _, e := range entries {
			prog, err := e.Compile(tgt)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Image == nil {
				t.Fatalf("%s/%s: not linked against the runtime library", e.Name, tgt.Name)
			}
			ps := sameAnalysis(t, e.Name+"/"+tgt.Name, prog)
			shared += len(features.SharedFuncs(ps))
			for _, fn := range prog.Funcs[len(prog.Own()):] {
				if slices.ContainsFunc(ps.Sites, func(s *features.Site) bool { return s.Fn == fn }) {
					libFuncs++
				}
			}
		}
		if shared < libFuncs*9/10 {
			t.Errorf("%s: %d of %d library functions with sites shared the image's", tgt.Name, shared, libFuncs)
		}
	}
}

// pointerLib is a library whose function compares its two arguments.
// Alone, nothing passes it pointers.
const pointerLib = `
int lib_same(int* p, int* q) {
	if (p == q) { return 1; }
	return 0;
}

int lib_count(int n) {
	int i;
	int c;
	c = 0;
	for (i = 0; i < n; i = i + 1) { c = c + i; }
	return c;
}
`

const pointerUser = `
int buf[4];
int main() {
	return lib_same(buf, buf) + lib_count(3);
}
`

// TestSharedLibraryPointerFactsTakeFullPath: a program that passes a
// pointer into a library function whose image facts say "not a pointer"
// analyzes that function in full, and still equals the full analysis; the
// other library functions still share. The site's condition really
// differs from the image's, so sharing it would have been wrong.
func TestSharedLibraryPointerFactsTakeFullPath(t *testing.T) {
	libAST, err := minic.Parse("lib", pointerLib)
	if err != nil {
		t.Fatal(err)
	}
	lib := codegen.NewLibrary(libAST)
	user, err := minic.Parse("prog", pointerUser)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lib.Compile(user, ir.LangC, codegen.Default, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ps := sameAnalysis(t, "pointer", prog)
	if got := features.SharedFuncs(ps); !slices.Equal(got, []string{"lib_count"}) {
		t.Fatalf("shared functions %v, want [lib_count]", got)
	}
	alone := features.Collect(&ir.Program{Name: "lib", Funcs: prog.Image.Funcs, Globals: prog.Image.Globals})
	i := slices.IndexFunc(ps.Sites, func(s *features.Site) bool { return s.Ref.Func == "lib_same" })
	if i < 0 {
		t.Fatal("lib_same has no branch site")
	}
	ref := ps.Sites[i].Ref
	linked, unlinked := siteOf(ps, ref), siteOf(alone, ref)
	if c := linked.Cond; !c.LeftPtr || !c.RightPtr || unlinked.Cond != (features.CondInfo{Kind: c.Kind}) {
		t.Fatalf("lib_same's comparison: linked %+v, image alone %+v; want pointers only when linked",
			c, unlinked.Cond)
	}

	// The runtime library too: a program handing lib_checksum a global
	// array changes that function's facts and nothing else's.
	src := "int a[8];\nint main() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i; } return lib_checksum(a, 8); }"
	rt, ok := corpus.CompileLinked("checksum", src, ir.LangC, codegen.Default, guard.Limits{})
	if !ok {
		t.Fatal("program does not link")
	}
	ps = sameAnalysis(t, "checksum", rt)
	if slices.Contains(features.SharedFuncs(ps), "lib_checksum") {
		t.Fatal("lib_checksum shared the image's sites despite a pointer argument")
	}
}

// TestSharedLibraryConcurrent collects linked programs from several
// goroutines at once: first uses of an image's analysis race with collects
// that read it, and every worker reads the shared graphs, sites and
// recorded pointer facts while some compute library facts of their own.
// make race runs it under the detector.
func TestSharedLibraryConcurrent(t *testing.T) {
	libAST, err := minic.Parse("lib", pointerLib)
	if err != nil {
		t.Fatal(err)
	}
	lib := codegen.NewLibrary(libAST)
	targets := append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...)
	// compile returns the i'th program of the run; the goroutines call it
	// too, so it reports errors instead of failing the test.
	compile := func(i int) (string, *ir.Program, error) {
		tgt := targets[i%len(targets)]
		if i%3 == 0 {
			user, err := minic.Parse("prog", pointerUser)
			if err != nil {
				return "", nil, err
			}
			prog, err := lib.Compile(user, ir.LangC, tgt, guard.Limits{})
			return "pointer/" + tgt.Name, prog, err
		}
		e := corpus.All()[i%len(corpus.All())]
		prog, err := e.Compile(tgt)
		return e.Name + "/" + tgt.Name, prog, err
	}
	const workers, perWorker = 4, 12
	want := make([][]features.Vector, workers*perWorker)
	for i := range want {
		_, prog, err := compile(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = features.ExtractAll(features.Collect(unmarked(prog)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				name, prog, err := compile(i)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !slices.Equal(features.ExtractAll(features.Collect(prog)), want[i]) {
					errs <- name + ": shared vectors differ from the full path's"
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

// TestOptimizeLayoutDropsImage: a linked program rewritten by
// OptimizeLayout loses its mark, so it keys and collects through the full
// path, and its key is that of its whole IR.
func TestOptimizeLayoutDropsImage(t *testing.T) {
	e, _ := corpus.ByName("compress")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	img := prog.Image
	before := ir.AppendCanonical(nil, prog)
	// Prefer every branch's taken successor, so layout moves blocks in
	// library functions as well as the program's own.
	g := &codegen.EdgeGuidance{Prob: map[ir.BranchRef]float64{}}
	for _, ref := range prog.Branches() {
		g.Prob[ref] = 0.9
	}
	codegen.OptimizeLayout(prog, g, codegen.LayoutOptions{})
	if prog.Image != nil {
		t.Fatal("OptimizeLayout kept the image mark")
	}
	libChanged := false
	for k, fn := range prog.Funcs[len(prog.Funcs)-len(img.Funcs):] {
		one := func(f *ir.Func) []byte { return ir.AppendCanonical(nil, &ir.Program{Funcs: []*ir.Func{f}}) }
		if !slices.Equal(one(fn), one(img.Funcs[k])) {
			libChanged = true
		}
	}
	if !libChanged || slices.Equal(ir.AppendCanonical(nil, prog), before) {
		t.Fatal("layout left the library functions unchanged; the test proves nothing")
	}
	ps := sameAnalysis(t, "laid-out", prog)
	if n := len(features.SharedFuncs(ps)); n != 0 {
		t.Fatalf("laid-out program shared %d library functions", n)
	}
	var cfgZero interp.Config
	marked := *prog
	marked.Image = img
	if artifact.Key(prog, cfgZero) == artifact.Key(&marked, cfgZero) {
		t.Fatal("laid-out program keys like the marked original")
	}
}

// siteOf returns ps's site for ref, or nil.
func siteOf(ps *features.ProgramSites, ref ir.BranchRef) *features.Site {
	for _, s := range ps.Sites {
		if s.Ref == ref {
			return s
		}
	}
	return nil
}
