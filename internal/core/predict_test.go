package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
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
// vector, encode the dense row, run the dense forward pass.
func denseOracle(m *Model, v features.Vector) float64 {
	x := make([]float64, m.Encoder.Dim)
	m.Encoder.Encode(maskVector(v, &m.gate), x)
	return m.Net.ForwardInto(make([]float64, m.Net.Hidden), x)
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
// sides of the gather kernel's 16-lane block, and the int8 path's float
// fallback with a guard band wide enough to send every vector through it.
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

			m.QuantCalib = &QuantCalibration{XScale: 10, Guard: 1}
			if err := m.EnableQuant(); err != nil {
				t.Fatal(err)
			}
			m.TakenProbabilities(vecs, got)
			check("int8 float fallback", got)
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
