package features

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/minic"
)

// compile builds a MinC program for feature tests.
func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := minic.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// siteIn finds the branch site inside the named function whose feature
// vector satisfies pred (first match in site order).
func siteIn(ps *ProgramSites, fn string) []*Site {
	var out []*Site
	for _, s := range ps.Sites {
		if s.Ref.Func == fn {
			out = append(out, s)
		}
	}
	return out
}

func TestLoopFeatures(t *testing.T) {
	prog := compile(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) { s = s + i; }
	return s;
}`)
	ps := Collect(prog)
	sites := siteIn(ps, "main")
	if len(sites) != 2 {
		t.Fatalf("expected guard + iteration branches, got %d sites", len(sites))
	}
	var backSite *Site
	for _, s := range sites {
		v := Of(s)
		if v.Values[FTakenSuccBackedge] == "LB" {
			backSite = s
			if v.Values[FBrDirection] != "B" {
				t.Error("back-edge branch must be backward")
			}
			if v.Values[FNotTakenSuccExit] != "LE" {
				t.Error("the fall-through of the iteration branch exits the loop")
			}
		}
	}
	if backSite == nil {
		t.Fatal("no branch with a taken back edge (loop inversion broken?)")
	}
}

func TestLanguageAndProcedureFeatures(t *testing.T) {
	prog := compile(t, `
int leafFn(int x) { if (x > 0) { return 1; } return 0; }
int selfFn(int x) { if (x > 0) { return selfFn(x - 1); } return 0; }
int main() { return leafFn(3) + selfFn(2); }`)
	ps := Collect(prog)
	leaf := siteIn(ps, "leafFn")[0]
	self := siteIn(ps, "selfFn")[0]
	mainS := siteIn(ps, "main")
	if v := Of(leaf); v.Values[FProcedureType] != "Leaf" {
		t.Errorf("leafFn type = %s", v.Values[FProcedureType])
	}
	if v := Of(self); v.Values[FProcedureType] != "CallSelf" {
		t.Errorf("selfFn type = %s", v.Values[FProcedureType])
	}
	if len(mainS) > 0 {
		if v := Of(mainS[0]); v.Values[FProcedureType] != "NonLeaf" {
			t.Errorf("main type = %s", v.Values[FProcedureType])
		}
	}
	if v := Of(leaf); v.Values[FLanguage] != "C" {
		t.Errorf("language = %s", v.Values[FLanguage])
	}
}

func TestCondInfoPatterns(t *testing.T) {
	prog := compile(t, `
int g;
int* gp;
int main() {
	int x;
	x = g;
	gp = &g; // a pointer store types the global slot for the analysis
	if (x < 0) { g = 1; }
	if (x == 7) { g = 2; }
	if (gp == null) { g = 3; }
	float f;
	f = 0.5;
	if (f < 0.0) { g = 4; }
	return 0;
}`)
	ps := Collect(prog)
	sites := siteIn(ps, "main")
	if len(sites) != 4 {
		t.Fatalf("got %d sites, want 4", len(sites))
	}
	// Site order follows block order: x<0, x==7, gp==null, f<0.
	c0 := sites[0].Cond
	if !c0.RightZero || c0.Float || c0.LeftPtr {
		t.Errorf("x<0 cond = %+v", c0)
	}
	c1 := sites[1].Cond
	if !c1.RightConst || c1.RightZero {
		t.Errorf("x==7 cond = %+v", c1)
	}
	c2 := sites[2].Cond
	if !c2.LeftPtr || !c2.RightZero {
		t.Errorf("gp==null cond = %+v", c2)
	}
	c3 := sites[3].Cond
	if !c3.Float || !c3.RightZero {
		t.Errorf("f<0.0 cond = %+v", c3)
	}
}

func TestSuccessorCallFeature(t *testing.T) {
	prog := compile(t, `
int helper() { return 1; }
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		x = helper();
	}
	return x;
}`)
	ps := Collect(prog)
	s := siteIn(ps, "main")[0]
	v := Of(s)
	// The branch skips the call: its fall-through contains the call and its
	// taken side (the join) does not lead to one unconditionally... the
	// then-block falls into the join, so taken side reaches no call.
	if v.Values[FNotTakenSuccCall] != "PC" {
		t.Errorf("fall-through call feature = %s, want PC", v.Values[FNotTakenSuccCall])
	}
}

func TestDependentFeatureGating(t *testing.T) {
	vecs := []Vector{
		{Values: [NumFeatures]string{FBrOpcode: "bne", FRAOpcode: "ldq"}},
		{Values: [NumFeatures]string{FBrOpcode: "beq", FRAOpcode: Unknown}},
	}
	enc := NewEncoder(vecs)
	x := make([]float64, enc.Dim)
	enc.Encode(vecs[1], x)
	// All columns of the RA-opcode feature must be exactly zero for the
	// Unknown vector.
	lo := enc.Offsets[FRAOpcode]
	for i := 0; i < len(enc.Vocab[FRAOpcode]); i++ {
		if x[lo+i] != 0 {
			t.Errorf("gated feature column %d = %g, want 0", lo+i, x[lo+i])
		}
	}
	// And the branch-opcode feature must be non-zero somewhere (normalized
	// one-hot of a non-constant column).
	found := false
	lo = enc.Offsets[FBrOpcode]
	for i := 0; i < len(enc.Vocab[FBrOpcode]); i++ {
		if x[lo+i] != 0 {
			found = true
		}
	}
	if !found {
		t.Error("known feature encoded as all zeros")
	}
}

func TestEncoderNormalization(t *testing.T) {
	// 3 of 4 vectors have value "a": mean 0.75, std sqrt(0.1875).
	var vecs []Vector
	for i := 0; i < 4; i++ {
		v := Vector{}
		if i < 3 {
			v.Values[0] = "a"
		} else {
			v.Values[0] = "b"
		}
		for f := 1; f < NumFeatures; f++ {
			v.Values[f] = "x"
		}
		vecs = append(vecs, v)
	}
	enc := NewEncoder(vecs)
	colA := enc.Offsets[0] // "a" sorts before "b"
	if math.Abs(enc.Mean[colA]-0.75) > 1e-9 {
		t.Errorf("mean = %g, want 0.75", enc.Mean[colA])
	}
	if math.Abs(enc.Std[colA]-math.Sqrt(0.1875)) > 1e-9 {
		t.Errorf("std = %g", enc.Std[colA])
	}
	// Constant columns ("x" everywhere) must encode to zero.
	x := make([]float64, enc.Dim)
	enc.Encode(vecs[0], x)
	colX := enc.Offsets[1]
	if x[colX] != 0 {
		t.Errorf("constant column = %g, want 0", x[colX])
	}
	// Normalized mean over the training set must be ~0 for column A.
	var sum float64
	for _, v := range vecs {
		enc.Encode(v, x)
		sum += x[colA]
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("normalized column mean = %g, want 0", sum/4)
	}
}

func TestEncoderUnseenValue(t *testing.T) {
	vecs := []Vector{{Values: [NumFeatures]string{FBrOpcode: "bne"}}}
	enc := NewEncoder(vecs)
	unseen := Vector{Values: [NumFeatures]string{FBrOpcode: "fbgt"}}
	x := make([]float64, enc.Dim)
	enc.Encode(unseen, x) // must not panic
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("unseen value produced a non-finite input")
		}
	}
}

func TestEncoderRebuildRoundtrip(t *testing.T) {
	vecs := []Vector{
		{Values: [NumFeatures]string{FBrOpcode: "bne", FBrDirection: "F"}},
		{Values: [NumFeatures]string{FBrOpcode: "beq", FBrDirection: "B"}},
	}
	enc := NewEncoder(vecs)
	// Simulate deserialization: wipe the index, Rebuild, compare encodings.
	clone := &Encoder{Vocab: enc.Vocab, Offsets: enc.Offsets, Dim: enc.Dim,
		Mean: enc.Mean, Std: enc.Std}
	if err := clone.Rebuild(); err != nil {
		t.Fatal(err)
	}
	a := make([]float64, enc.Dim)
	b := make([]float64, enc.Dim)
	for _, v := range vecs {
		enc.Encode(v, a)
		clone.Encode(v, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rebuilt encoder differs at column %d", i)
			}
		}
	}
}

// TestEncoderFiniteProperty: any vector over the known vocabulary encodes
// to finite values.
func TestEncoderFiniteProperty(t *testing.T) {
	vecs := []Vector{
		{Values: [NumFeatures]string{FBrOpcode: "bne", FBrDirection: "F", FLanguage: "C"}},
		{Values: [NumFeatures]string{FBrOpcode: "beq", FBrDirection: "B", FLanguage: "FORT"}},
		{Values: [NumFeatures]string{FBrOpcode: "blt", FBrDirection: "F", FLanguage: "C"}},
	}
	enc := NewEncoder(vecs)
	f := func(choice [NumFeatures]uint8) bool {
		var v Vector
		for fi := 0; fi < NumFeatures; fi++ {
			vocab := enc.Vocab[fi]
			if len(vocab) == 0 || int(choice[fi])%(len(vocab)+1) == len(vocab) {
				v.Values[fi] = Unknown
			} else {
				v.Values[fi] = vocab[int(choice[fi])%(len(vocab)+1)]
			}
		}
		x := make([]float64, enc.Dim)
		enc.Encode(v, x)
		for _, val := range x {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsesBeforeDefAndLocs(t *testing.T) {
	prog := compile(t, `
int main() {
	int x;
	x = __input(0);
	if (x > 0) {
		x = x + 1;   // reads x before writing it: use-before-def
	}
	return x;
}`)
	ps := Collect(prog)
	s := siteIn(ps, "main")[0]
	if len(s.SourceLocs) == 0 {
		t.Fatal("branch has no source locations")
	}
	v := Of(s)
	// The then-block (fall-through) reads x first.
	if v.Values[FNotTakenSuccUseDef] != "UBD" {
		t.Errorf("use-before-def feature = %s, want UBD", v.Values[FNotTakenSuccUseDef])
	}
}

func TestFeatureNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumFeatures; i++ {
		n := Name(i)
		if n == "" || seen[n] {
			t.Errorf("feature %d has empty or duplicate name %q", i, n)
		}
		seen[n] = true
	}
	if Name(-1) == "" || Name(NumFeatures) == "" {
		t.Error("out-of-range names must still render")
	}
}

// TestEncodeAllSparseMatchesDense: the sparse batch encoding must contain
// exactly the nonzeros of the dense encoding, in ascending column order, with
// bit-identical values — including gated ("?") blocks, unseen values, and
// constant columns.
func TestEncodeAllSparseMatchesDense(t *testing.T) {
	vals := []string{"a", "b", "c", Unknown, "zz-unseen"}
	var vecs []Vector
	for i := 0; i < 17; i++ {
		v := Vector{}
		for f := 0; f < NumFeatures; f++ {
			v.Values[f] = vals[(i*7+f*3)%len(vals)]
		}
		vecs = append(vecs, v)
	}
	// Train the encoder on a subset so some values are out-of-vocabulary.
	enc := NewEncoder(vecs[:10])
	dense := make([][]float64, len(vecs))
	for i, v := range vecs {
		dense[i] = make([]float64, enc.Dim)
		enc.Encode(v, dense[i])
	}
	sparse := enc.EncodeAllSparse(vecs)
	if got, want := sparse.Rows(), len(vecs); got != want {
		t.Fatalf("sparse rows = %d, want %d", got, want)
	}
	if sparse.Cols != enc.Dim {
		t.Fatalf("sparse cols = %d, want %d", sparse.Cols, enc.Dim)
	}
	for k, row := range dense {
		idx, val := sparse.Row(k)
		p := 0
		for j, x := range row {
			if x == 0 {
				continue
			}
			if p >= len(idx) {
				t.Fatalf("row %d: sparse ran out at dense col %d", k, j)
			}
			if int(idx[p]) != j || val[p] != x {
				t.Fatalf("row %d: sparse (%d,%g) vs dense (%d,%g)",
					k, idx[p], val[p], j, x)
			}
			p++
		}
		if p != len(idx) {
			t.Fatalf("row %d: sparse has %d extra entries", k, len(idx)-p)
		}
		for q := 1; q < len(idx); q++ {
			if idx[q] <= idx[q-1] {
				t.Fatalf("row %d: columns not strictly ascending", k)
			}
		}
	}
}

// TestPackKey pins the packed-key invariants the hash table's empty-slot
// sentinel depends on: injectivity over packable strings and never-zero.
func TestPackKey(t *testing.T) {
	if _, ok := packKey(""); ok {
		t.Error("empty string must be unpackable (0 marks empty slots)")
	}
	if _, ok := packKey("12345678"); ok {
		t.Error("8-byte string must be unpackable")
	}
	seen := make(map[uint64]string)
	var vals []string
	for _, s := range []string{"a", "b", "ab", "ba", "aa", "A", "\x00", "\x00\x00", "BEQ", "BEQZ", "1234567"} {
		vals = append(vals, s)
	}
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("v%d", i))
	}
	for _, s := range vals {
		k, ok := packKey(s)
		if !ok {
			t.Fatalf("packKey(%q) not packable", s)
		}
		if k == 0 {
			t.Fatalf("packKey(%q) = 0, collides with the empty-slot sentinel", s)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("packKey collision: %q and %q -> %#x", prev, s, k)
		}
		seen[k] = s
	}
}

// TestEncoderPositions checks the value lookup behind Encode and AppendRow
// on both of its forms — the packed-key table and, for a feature with a
// >7-byte value, the map fallback: every vocabulary value finds its own
// position, unseen and unpackable unseen values are unseen, and gated,
// Unknown and empty values are gated.
func TestEncoderPositions(t *testing.T) {
	var vecs []Vector
	for i := 0; i < 300; i++ {
		var v Vector
		v.Values[FBrOpcode] = fmt.Sprintf("op%d", i%97)
		v.Values[FBrDirection] = []string{"F", "B", "LONG-VOCAB-VALUE"}[i%3]
		vecs = append(vecs, v)
	}
	enc := NewEncoder(vecs)
	if enc.index[FBrOpcode].keys == nil || enc.index[FBrOpcode].slow != nil {
		t.Fatal("short-string vocabulary not on the packed table")
	}
	if enc.index[FBrDirection].slow == nil {
		t.Fatal("vocabulary with an unpackable value not on the map fallback")
	}
	resolve := func(f int, val string, masked bool) int32 {
		var v Vector
		var gate [NumFeatures]bool
		var pos [NumFeatures]int32
		v.Values[f] = val
		gate[f] = masked
		enc.positions(&v, &gate, &pos)
		return pos[f]
	}
	for _, f := range []int{FBrOpcode, FBrDirection} {
		for want, val := range enc.Vocab[f] {
			if got := resolve(f, val, false); got != int32(want) {
				t.Errorf("feature %d: %q at position %d, want %d", f, val, got, want)
			}
			if got := resolve(f, val, true); got != gated {
				t.Errorf("feature %d: gated %q resolved to %d", f, val, got)
			}
		}
		for _, val := range []string{"op97", "NEVER-SEEN-AND-LONG", "X"} {
			if got := resolve(f, val, false); got != unseen {
				t.Errorf("feature %d: unseen %q resolved to %d", f, val, got)
			}
		}
		for _, val := range []string{Unknown, ""} {
			if got := resolve(f, val, false); got != gated {
				t.Errorf("feature %d: %q resolved to %d, want gated", f, val, got)
			}
		}
	}
}
