package core

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/testutil"
)

// corpusVectors compiles every corpus program and extracts its branch
// feature vectors (no profiling: prediction needs only the vectors). The
// result is shared by every test in the process and must not be modified.
var corpusVectors = sync.OnceValues(func() ([][]features.Vector, error) {
	var out [][]features.Vector
	for _, e := range corpus.All() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			return nil, err
		}
		out = append(out, features.ExtractAll(features.Collect(prog)))
	}
	return out, nil
})

// denseOracle is the float prediction path written the long way: mask the
// vector, encode the dense row, and run the dense forward pass over the
// net's weights (W column-major: W[j*Hidden+i] feeds input j to hidden i).
func denseOracle(m *Model, v features.Vector) float64 {
	x := make([]float64, m.Encoder.Dim)
	m.Encoder.Encode(maskVector(v, &m.gate), x)
	n := m.Net
	h := append([]float64(nil), n.B...)
	for j, xv := range x {
		if xv == 0 {
			continue
		}
		for i := range h {
			h[i] += n.W[j*n.Hidden+i] * xv
		}
	}
	z := n.A
	for i, hv := range h {
		z += n.V[i] * math.Tanh(hv)
	}
	return 0.5 * (math.Tanh(z) + 1)
}

// trainOnVectors fits a short neural run on vectors with synthetic targets
// (backward branches mostly taken, forward ones mostly not): enough to give
// every weight a trained value without profiling the corpus.
func trainOnVectors(vecs []features.Vector, cfg Config) *Model {
	examples := make([]Example, len(vecs))
	for i, v := range vecs {
		target := 0.3
		if v.Values[features.FBrDirection] == "B" {
			target = 0.9
		}
		examples[i] = Example{Vector: v, Target: target, Weight: 1 / float64(len(vecs))}
	}
	cfg.Net.MaxEpochs, cfg.Net.Patience = 40, 40
	return TrainExamples(examples, cfg)
}

// predictProbes are hand-made vectors the corpus never produces: unseen
// short values, values too long to pack into the lookup's uint64 keys
// (seen and unseen), empty strings, and an all-"?" vector.
func predictProbes(m *Model) []features.Vector {
	blank := func() features.Vector {
		var v features.Vector
		for i := range v.Values {
			v.Values[i] = features.Unknown
		}
		return v
	}
	var probes []features.Vector
	probes = append(probes, blank())
	unseen := blank()
	long := blank()
	for f := range unseen.Values {
		unseen.Values[f] = "NEW"
		long.Values[f] = "NEVER-SEEN-AND-QUITE-LONG"
	}
	probes = append(probes, unseen, long)
	// A trained vector with one feature at a time replaced by an unseen,
	// unpackable or empty value.
	base := blank()
	for f := range base.Values {
		if vocab := m.Encoder.Vocab[f]; len(vocab) > 0 {
			base.Values[f] = vocab[len(vocab)/2]
		}
	}
	probes = append(probes, base)
	for f := range base.Values {
		for _, val := range []string{"ZZ", "UNPACKABLE-VALUE", ""} {
			v := base
			v.Values[f] = val
			probes = append(probes, v)
		}
	}
	return probes
}

// TestPredictMatchesDenseOracle is the bit-identity contract of the float
// serving path: TakenProbabilities and TakenProbability (sparse rows from
// the encoder's tables, gated features skipped, ForwardSparse) must equal
// the dense oracle bit for bit on every branch of all 46 corpus programs
// plus the hand-made probes. Models train on every other program, so the
// held-out half brings genuinely unseen values. It covers the default
// configuration, an ExcludeFeatures ablation, and hidden widths on both
// sides of the gather kernel's 16-lane block.
func TestPredictMatchesDenseOracle(t *testing.T) {
	progs, err := corpusVectors()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 46 {
		t.Fatalf("corpus has %d programs, want 46", len(progs))
	}
	var train, all []features.Vector
	for i, vs := range progs {
		if i%2 == 0 {
			train = append(train, vs...)
		}
		all = append(all, vs...)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"exclude", Config{ExcludeFeatures: []int{features.FBrOpcode, features.FLoopHeader, features.FTakenSuccCall}}},
		{"hidden5", Config{Hidden: 5}},
		{"hidden33", Config{Hidden: 33}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := trainOnVectors(train, tc.cfg)
			vecs := append(append([]features.Vector(nil), all...), predictProbes(m)...)
			want := make([]float64, len(vecs))
			for i, v := range vecs {
				want[i] = denseOracle(m, v)
			}
			check := func(path string, got []float64) {
				t.Helper()
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: vector %d (%v): %v, dense oracle %v",
							path, i, vecs[i].Values, got[i], want[i])
					}
				}
			}
			got := make([]float64, len(vecs))
			m.TakenProbabilities(vecs, got)
			check("TakenProbabilities", got)
			for i, v := range vecs {
				got[i] = m.TakenProbability(v)
			}
			check("TakenProbability", got)
		})
	}
}

// fuzzModels are the FuzzPredict models, trained once per process on every
// other corpus program: the default configuration and an ablation with
// excluded features.
var fuzzModels = sync.OnceValues(func() ([]*Model, error) {
	progs, err := corpusVectors()
	if err != nil {
		return nil, err
	}
	var train []features.Vector
	for i := 0; i < len(progs); i += 2 {
		train = append(train, progs[i]...)
	}
	return []*Model{
		trainOnVectors(train, Config{}),
		trainOnVectors(train, Config{Hidden: 17, ExcludeFeatures: []int{features.FRAOpcode, features.FLanguage}}),
	}, nil
})

// FuzzPredict drives the float prediction path with arbitrary feature
// values — seeded with real vectors from all 46 corpus programs — and
// checks it bit for bit against the dense oracle.
func FuzzPredict(f *testing.F) {
	const sep = "\x1f"
	progs, err := corpusVectors()
	if err != nil {
		f.Fatal(err)
	}
	for _, vs := range progs {
		if len(vs) > 3 {
			vs = vs[:3]
		}
		for _, v := range vs {
			f.Add(strings.Join(v.Values[:], sep))
		}
	}
	f.Add("")
	f.Add("BNE" + sep + "F" + sep + "NEVER-SEEN-AND-QUITE-LONG" + sep + "\x00")
	f.Fuzz(func(t *testing.T, s string) {
		models, err := fuzzModels()
		if err != nil {
			t.Fatal(err)
		}
		var v features.Vector
		copy(v.Values[:], strings.Split(s, sep))
		for _, m := range models {
			got := m.TakenProbability(v)
			if want := denseOracle(m, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hidden %d: %v, dense oracle %v", m.Net.Hidden, got, want)
			}
		}
	})
}

// TestLoadIgnoresQuantCalibration pins the legacy model-file contract: a
// file that still carries the "quant" calibration object older builds wrote
// loads, predicts bit-identically to the same model without it, and saves
// back to exactly the clean file's bytes.
func TestLoadIgnoresQuantCalibration(t *testing.T) {
	data := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	var clean bytes.Buffer
	if err := Train(data, Config{}).Save(&clean); err != nil {
		t.Fatal(err)
	}
	// Save ends the object with "\n}\n"; add the legacy field before it.
	body := bytes.TrimSuffix(clean.Bytes(), []byte("\n}\n"))
	if len(body) == clean.Len() {
		t.Fatalf("unexpected model file ending: %q", clean.Bytes()[clean.Len()-8:])
	}
	legacy := append(append([]byte(nil), body...),
		",\n \"quant\": {\"xscale\": 8.3335, \"guard\": 0.01}\n}\n"...)

	want, err := Load(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("loading a model file with a quant object: %v", err)
	}
	vecs := data[0].Vectors
	wantP := make([]float64, len(vecs))
	gotP := make([]float64, len(vecs))
	want.TakenProbabilities(vecs, wantP)
	got.TakenProbabilities(vecs, gotP)
	for i := range wantP {
		if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) {
			t.Errorf("site %d: legacy file predicts %v, clean file %v", i, gotP[i], wantP[i])
		}
	}
	var resaved bytes.Buffer
	if err := got.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), clean.Bytes()) {
		t.Error("re-saving the legacy model does not reproduce the clean file's bytes")
	}
}

// TestPredictZeroAlloc pins the serving property of the float path:
// steady-state TakenProbabilities and TakenProbability allocate nothing.
func TestPredictZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold on plain builds")
	}
	data := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model := Train(data, Config{})
	vecs := data[0].Vectors
	out := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, out) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() {
		model.TakenProbabilities(vecs, out)
	}); allocs != 0 {
		t.Errorf("TakenProbabilities allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out[0] = model.TakenProbability(vecs[0])
	}); allocs != 0 {
		t.Errorf("TakenProbability allocates %v per run, want 0", allocs)
	}
}

// BenchmarkPredictFloat measures the serving forward path per prediction.
func BenchmarkPredictFloat(b *testing.B) {
	data := []*ProgramData{
		analyzeSrc(b, "a", loopy, nil),
		analyzeSrc(b, "b", loopy2, nil),
	}
	m := Train(data, Config{})
	vecs := append(append([]features.Vector(nil), data[0].Vectors...), data[1].Vectors...)
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TakenProbabilities(vecs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/prediction")
}
