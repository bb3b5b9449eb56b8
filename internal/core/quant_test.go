package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/testutil"
)

// calibratedModel trains on the given programs and runs the calibration
// sweep, returning the model with QuantCalib set but the float path active.
func calibratedModel(t *testing.T, data []*ProgramData) (*Model, *QuantCalibrationReport) {
	t.Helper()
	m := Train(data, Config{})
	rep, err := CalibrateQuant(m, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// TestCorpusQuantDecisionsPinned is the tentpole differential test: over
// all 46 corpus programs, the calibrated int8 path must produce the exact
// taken/not-taken decision of the float64 reference at every branch site,
// and therefore bit-identical Table 4 miss rates. Runs in the CI race
// matrix; -short skips it.
func TestCorpusQuantDecisionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide differential test in short mode")
	}
	entries := corpus.Study()
	var data []*ProgramData
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatalf("compile %s: %v", e.Name, err)
		}
		pd, err := Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatalf("analyze %s: %v", e.Name, err)
		}
		data = append(data, pd)
	}
	model, rep := calibratedModel(t, data)
	t.Logf("calibration: margin %.4f xscale %.4f guard %.6f fallback %.2f%% over %d vectors",
		rep.Chosen.Margin, rep.Chosen.XScale, rep.Chosen.Guard,
		100*rep.Chosen.FallbackFraction(), rep.Chosen.Vectors)

	// The guard band is the price of pinning; it must stay a minority path
	// or the quantized kernels aren't actually serving.
	if f := rep.Chosen.FallbackFraction(); f > 0.25 {
		t.Fatalf("calibration sends %.1f%% of corpus vectors to the float fallback (budget 25%%)", 100*f)
	}

	// Float reference decisions and miss rates first, with quant off.
	type programRef struct {
		probs []float64
		miss  float64
	}
	refs := make([]programRef, len(data))
	pred := &Predictor{Model: model}
	for i, pd := range data {
		probs := make([]float64, len(pd.Vectors))
		model.TakenProbabilities(pd.Vectors, probs)
		refs[i] = programRef{probs: probs, miss: heuristics.MissRate(pd.Sites, pd.Profile, pred)}
	}

	if err := model.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	if !model.QuantEnabled() {
		t.Fatal("EnableQuant did not enable the int8 path")
	}
	flipped := 0
	for i, pd := range data {
		probs := make([]float64, len(pd.Vectors))
		model.TakenProbabilities(pd.Vectors, probs)
		for k := range probs {
			if (probs[k] > 0.5) != (refs[i].probs[k] > 0.5) {
				flipped++
				t.Errorf("%s site %s: quant %v vs float %v — decision flipped",
					pd.Name, pd.Vectors[k].Ref, probs[k], refs[i].probs[k])
			}
		}
		// Miss rates are a pure function of decisions and profile counts,
		// so pinned decisions must make them bit-identical — the Table 4
		// contract, asserted with ==, not a tolerance.
		if miss := heuristics.MissRate(pd.Sites, pd.Profile, pred); miss != refs[i].miss {
			t.Errorf("%s: quant miss rate %v, float %v — not bit-identical", pd.Name, miss, refs[i].miss)
		}
	}
	if flipped > 0 {
		t.Fatalf("%d corpus decisions flipped under quantization", flipped)
	}
}

// TestQuantCalibrationPinsSmallCorpus is the fast always-on version of the
// differential contract on the two in-package fixture programs.
func TestQuantCalibrationPinsSmallCorpus(t *testing.T) {
	data := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
	}
	model, rep := calibratedModel(t, data)
	if model.QuantCalib == nil {
		t.Fatal("CalibrateQuant left QuantCalib nil")
	}
	if len(rep.Points) != len(DefaultQuantMargins) {
		t.Fatalf("sweep has %d points, want %d", len(rep.Points), len(DefaultQuantMargins))
	}
	ref := make([]float64, len(data[0].Vectors))
	model.TakenProbabilities(data[0].Vectors, ref)
	if err := model.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(data[0].Vectors))
	model.TakenProbabilities(data[0].Vectors, got)
	for i := range got {
		if (got[i] > 0.5) != (ref[i] > 0.5) {
			t.Errorf("site %d: quant %v vs float %v — decision flipped", i, got[i], ref[i])
		}
	}
	model.DisableQuant()
	if model.QuantEnabled() {
		t.Error("DisableQuant left the int8 path active")
	}
}

// TestQuantCalibrationRoundTrip saves a calibrated model and reloads it:
// the calibration must survive, and the reloaded quantized path must
// reproduce the original's probabilities bit for bit (the int8 weights are
// rebuilt deterministically from the float net).
func TestQuantCalibrationRoundTrip(t *testing.T) {
	data := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model, _ := calibratedModel(t, data)
	if err := model.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.QuantCalib == nil {
		t.Fatal("calibration lost in save/load round trip")
	}
	if *loaded.QuantCalib != *model.QuantCalib {
		t.Fatalf("calibration changed: %+v vs %+v", loaded.QuantCalib, model.QuantCalib)
	}
	if loaded.QuantEnabled() {
		t.Fatal("loading a calibrated model must not silently enable quantization")
	}
	if err := loaded.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(data[0].Vectors))
	got := make([]float64, len(data[0].Vectors))
	model.TakenProbabilities(data[0].Vectors, want)
	loaded.TakenProbabilities(data[0].Vectors, got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("site %d: reloaded quant %v, original %v", i, got[i], want[i])
		}
	}
}

// TestQuantZeroAllocPrediction pins the serving property: with quantization
// enabled, steady-state batch prediction allocates nothing.
func TestQuantZeroAllocPrediction(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold on plain builds")
	}
	data := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model, _ := calibratedModel(t, data)
	if err := model.EnableQuant(); err != nil {
		t.Fatal(err)
	}
	vecs := data[0].Vectors
	out := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, out) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() {
		model.TakenProbabilities(vecs, out)
	}); allocs != 0 {
		t.Fatalf("quantized TakenProbabilities allocates %v per run, want 0", allocs)
	}
}

// BenchmarkPredictFloat/BenchmarkPredictQuant measure the serving forward
// path per prediction — the ratio is the quantization speedup espbench
// -serve records in BENCH_serve.json.
func benchQuantModel(b *testing.B) (*Model, []features.Vector) {
	b.Helper()
	data := []*ProgramData{
		analyzeSrc(b, "a", loopy, nil),
		analyzeSrc(b, "b", loopy2, nil),
	}
	m := Train(data, Config{})
	if _, err := CalibrateQuant(m, data, nil); err != nil {
		b.Fatal(err)
	}
	vecs := append(append([]features.Vector(nil), data[0].Vectors...), data[1].Vectors...)
	return m, vecs
}

func BenchmarkPredictFloat(b *testing.B) {
	m, vecs := benchQuantModel(b)
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TakenProbabilities(vecs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/prediction")
}

func BenchmarkPredictQuant(b *testing.B) {
	m, vecs := benchQuantModel(b)
	if err := m.EnableQuant(); err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TakenProbabilities(vecs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/prediction")
}

// TestEnableQuantErrors pins the misuse paths.
func TestEnableQuantErrors(t *testing.T) {
	data := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	uncalibrated := Train(data, Config{})
	if err := uncalibrated.EnableQuant(); err == nil {
		t.Error("EnableQuant without calibration: no error")
	}
	tree := Train(data, Config{Classifier: DecisionTree})
	if _, err := CalibrateQuant(tree, data, nil); err == nil {
		t.Error("CalibrateQuant on a decision tree: no error")
	}
	neuralM := Train(data, Config{})
	if _, err := CalibrateQuant(neuralM, nil, nil); err == nil {
		t.Error("CalibrateQuant without corpus data: no error")
	}
	if _, err := CalibrateQuant(neuralM, data, []float64{-1}); err == nil {
		t.Error("CalibrateQuant with a negative margin: no error")
	}
	// A guard band from a model file is untrusted: a negative or NaN band
	// never holds, which would silently skip the float fallback.
	for _, g := range []float64{-0.01, math.NaN()} {
		m, _ := calibratedModel(t, data)
		m.QuantCalib.Guard = g
		if err := m.EnableQuant(); err == nil {
			t.Errorf("EnableQuant with guard %v: no error", g)
		}
		if m.QuantEnabled() {
			t.Errorf("EnableQuant with guard %v enabled the int8 path", g)
		}
	}
}
