package core_test

// Differential and property tests of the example builder: the examples a
// cached record yields from its own vectors and its image's, with no
// spliced copy (core.LinkedExamples), must equal the examples of the
// spliced vectors with no image bit for bit, and every example slice holds exactly the
// executed sites.

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/interp"
	"repro/internal/ir"
)

// sameExamples compares examples bit for bit, floats by their bits.
func sameExamples(a, b []core.Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vector != b[i].Vector ||
			math.Float64bits(a[i].Target) != math.Float64bits(b[i].Target) ||
			math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

// exact fails unless ex holds exactly its examples.
func exact(t *testing.T, name string, ex []core.Example) {
	t.Helper()
	if len(ex) != cap(ex) {
		t.Fatalf("%s: %d examples in a slice of capacity %d", name, len(ex), cap(ex))
	}
}

// roundTrip stores rec as a pack frame would and reads it back.
func roundTrip(t *testing.T, name, key string, rec *artifact.Record) *artifact.Record {
	t.Helper()
	frame, err := artifact.Frame(key, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := artifact.DecodeRecord(frame, key)
	if !ok {
		t.Fatalf("%s: record frame does not decode", name)
	}
	return got
}

// libraryLast is a program whose only branches are in a function that
// sorts before every runtime-library function (lib_*), so the merge of its
// vectors ends on the library's; in every corpus program it ends on main's.
var libraryLast = corpus.Entry{Name: "library-last", Language: ir.LangC, Source: `
int a_sum(int n) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + lib_abs(i - 3); }
	return s;
}
int main() { return a_sum(8); }
`}

// TestLinkedExamplesMatchSpliced: for every corpus program, one generated
// program per mix and libraryLast, under MIPSCC and the four compilers
// (codegen.Default is the first of them), the examples of the program's
// record, built from its own vectors and its image's, equal the examples
// of the spliced vectors with no image and ProgramData.Examples bit for bit, and the
// merged site count is the program's. The same analysis stored unlinked
// (all vectors, no image) yields the same examples with no image. A linked
// record offered another image, or none, is unusable.
func TestLinkedExamplesMatchSpliced(t *testing.T) {
	entries := corpus.All()
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Generate(3, m).Entry())
	}
	entries = append(entries, libraryLast)
	targets := append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...)
	for ti, tgt := range targets {
		other := targets[(ti+1)%len(targets)]
		for _, e := range entries {
			name := e.Name + "/" + tgt.Name
			prog, err := e.Compile(tgt)
			if err != nil {
				t.Fatal(err)
			}
			img := prog.Image
			if img == nil {
				t.Fatalf("%s: not linked against the runtime library", name)
			}
			pd, err := core.Analyze(prog, e.Language, e.RunConfig())
			if err != nil {
				t.Fatal(err)
			}
			if last := pd.Vectors[len(pd.Vectors)-1].Ref.Func; e.Name == libraryLast.Name &&
				!slices.ContainsFunc(img.Funcs, func(f *ir.Func) bool { return f.Name == last }) {
				t.Fatalf("%s: the last vector is %s's, not a library function's", name, last)
			}
			key := artifact.Key(prog, e.RunConfig())
			want := pd.Examples()
			exact(t, name+" ProgramData.Examples", want)

			rec := roundTrip(t, name, key, artifact.NewRecord(prog, pd.Profile, features.ExtractOwn(pd.Sites)))
			lib, ok := rec.ImageFor(img)
			if !ok || lib != img {
				t.Fatalf("%s: record does not take its own image", name)
			}
			if n := features.NumLinked(lib, rec.Vectors); n != len(pd.Sites.Sites) {
				t.Fatalf("%s: %d merged vectors for %d sites", name, n, len(pd.Sites.Sites))
			}
			vecs := features.SpliceVectors(img, rec.Vectors)
			if !slices.Equal(vecs, pd.Vectors) {
				t.Fatalf("%s: spliced record vectors differ from the program's", name)
			}
			spliced := core.LinkedExamples(nil, vecs, rec.Profile)
			got := core.LinkedExamples(lib, rec.Vectors, rec.Profile)
			exact(t, name+" LinkedExamples", got)
			if !sameExamples(got, spliced) || !sameExamples(got, want) {
				t.Fatalf("%s: record examples differ from the spliced examples", name)
			}

			oimg, err := corpus.LibraryImage(e.Language, other)
			if err != nil {
				t.Fatal(err)
			}
			if oimg.ID == img.ID {
				t.Fatalf("%s: the %s image has the same ID", name, other.Name)
			}
			if _, ok := rec.ImageFor(oimg); ok {
				t.Fatalf("%s: record takes the %s image", name, other.Name)
			}
			if _, ok := rec.ImageFor(nil); ok {
				t.Fatalf("%s: linked record is usable with no image", name)
			}

			full := roundTrip(t, name, key, &artifact.Record{Profile: pd.Profile, Vectors: pd.Vectors})
			for _, offered := range []*ir.Image{img, nil} {
				lib, ok := full.ImageFor(offered)
				if !ok || lib != nil {
					t.Fatalf("%s: unlinked record needs an image", name)
				}
				if n := features.NumLinked(lib, full.Vectors); n != len(pd.Sites.Sites) {
					t.Fatalf("%s: unlinked record has %d vectors for %d sites", name, n, len(pd.Sites.Sites))
				}
				if !sameExamples(core.LinkedExamples(lib, full.Vectors, full.Profile), want) {
					t.Fatalf("%s: unlinked record examples differ", name)
				}
			}
		}
	}
}

// oracleExamples is the append-grown construction LinkedExamples replaced:
// it does not count first, and it weighs through Profile.NormalizedWeight.
func oracleExamples(vecs []features.Vector, prof *interp.Profile) []core.Example {
	var out []core.Example
	for i := range vecs {
		c := prof.Branches[vecs[i].Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		out = append(out, core.Example{Vector: vecs[i], Target: c.TakenFraction(),
			Weight: prof.NormalizedWeight(vecs[i].Ref)})
	}
	return out
}

// TestExamplesOfExactProperty: over seeded random vectors and profiles
// (branches missing, never executed, executed, and a zero CondExec),
// LinkedExamples with no image equals the oracle bit for bit in a slice of
// exactly its length.
func TestExamplesOfExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		vecs := make([]features.Vector, rng.Intn(40))
		prof := &interp.Profile{Branches: map[ir.BranchRef]*interp.BranchCount{}}
		for i := range vecs {
			ref := ir.BranchRef{Func: "f" + strconv.Itoa(rng.Intn(5)), Block: i}
			vecs[i].Ref = ref
			vecs[i].Values[0] = strconv.Itoa(rng.Intn(3))
			switch rng.Intn(3) {
			case 0: // never registered
			case 1:
				prof.Branches[ref] = &interp.BranchCount{}
			default:
				exec := 1 + rng.Int63n(1000)
				prof.Branches[ref] = &interp.BranchCount{Executed: exec, Taken: rng.Int63n(exec + 1)}
				prof.CondExec += exec
			}
		}
		if rng.Intn(10) == 0 {
			prof.CondExec = 0
		}
		want := oracleExamples(vecs, prof)
		got := core.LinkedExamples(nil, vecs, prof)
		if !sameExamples(got, want) {
			t.Fatalf("trial %d: examples differ from the oracle", trial)
		}
		exact(t, "trial "+strconv.Itoa(trial), got)
	}
}
