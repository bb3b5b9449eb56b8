package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// analyzeSrc compiles and profiles a MinC program.
func analyzeSrc(t testing.TB, name, src string, input []int64) *ProgramData {
	t.Helper()
	ast, err := minic.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := Analyze(prog, ir.LangC, interp.Config{Input: input, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

// loopy is a small corpus program whose loop branches are highly biased.
const loopy = `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 200; i = i + 1) {
		if (i % 16 == 0) { s = s + 2; } else { s = s + 1; }
	}
	return s;
}`

// loopy2 shares the idioms of loopy with different constants.
const loopy2 = `
int main() {
	int j;
	int acc;
	acc = 1;
	for (j = 0; j < 150; j = j + 1) {
		if (j % 10 == 3) { acc = acc * 2; } else { acc = acc + 3; }
		if (acc > 100000) { acc = acc / 2; }
	}
	return acc;
}`

func TestAnalyzeAndExamples(t *testing.T) {
	pd := analyzeSrc(t, "loopy", loopy, nil)
	exs := pd.Examples()
	if len(exs) == 0 {
		t.Fatal("no training examples")
	}
	var totalW float64
	for _, e := range exs {
		if e.Target < 0 || e.Target > 1 {
			t.Errorf("target %g out of range", e.Target)
		}
		if e.Weight <= 0 {
			t.Errorf("weight %g must be positive for executed branches", e.Weight)
		}
		totalW += e.Weight
	}
	// Weights are normalized per program: executed sites sum to ~1.
	if totalW < 0.999 || totalW > 1.001 {
		t.Errorf("weights sum to %g, want 1", totalW)
	}
}

func TestTrainAndPredict(t *testing.T) {
	train := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
	}
	model := Train(train, Config{})
	if model.TrainStats.Epochs == 0 {
		t.Fatal("no training happened")
	}
	// The model must beat a coin on its own training programs.
	p := &Predictor{Model: model}
	for _, pd := range train {
		miss := heuristics.MissRate(pd.Vectors, pd.Evidence(), pd.Profile, p)
		if miss >= 0.5 {
			t.Errorf("%s: training-set miss %.2f not better than random", pd.Name, miss)
		}
	}
	// Probabilities are bounded.
	for _, v := range train[0].Vectors {
		prob := model.TakenProbability(v)
		if prob < 0 || prob > 1 {
			t.Errorf("probability %g out of range", prob)
		}
	}
}

func TestTreeClassifier(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	model := Train(train, Config{Classifier: DecisionTree})
	if model.Tree == nil {
		t.Fatal("no tree built")
	}
	p := &Predictor{Model: model}
	miss := heuristics.MissRate(train[0].Vectors, train[0].Evidence(), train[0].Profile, p)
	if miss >= 0.5 {
		t.Errorf("tree training-set miss %.2f", miss)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	for _, cls := range []ClassifierKind{NeuralNet, DecisionTree} {
		model := Train(train, Config{Classifier: cls})
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", cls, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v: load: %v", cls, err)
		}
		for _, v := range train[0].Vectors {
			if a, b := model.TakenProbability(v), back.TakenProbability(v); a != b {
				t.Fatalf("%v: loaded model differs: %g vs %g", cls, a, b)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader([]byte("{}"))); err == nil {
		t.Error("Load accepted an empty model")
	}
}

// TestLoadRejectsShapeMismatch: a model file whose shapes disagree must
// not load. Before the check, a net.b one entry short loaded and predicted
// with a hidden bias left over from pooled scratch.
func TestLoadRejectsShapeMismatch(t *testing.T) {
	model := Train([]*ProgramData{analyzeSrc(t, "a", loopy, nil)}, Config{})
	var saved bytes.Buffer
	if err := model.Save(&saved); err != nil {
		t.Fatal(err)
	}
	type doc = map[string]any
	for _, tc := range []struct {
		name   string
		mutate func(net, enc doc)
	}{
		{"unchanged", func(net, enc doc) {}},
		{"net.b short", func(net, enc doc) { net["b"] = net["b"].([]any)[1:] }},
		{"net.v long", func(net, enc doc) { net["v"] = append(net["v"].([]any), 0.5) }},
		{"net inputs differ from encoder dim", func(net, enc doc) {
			net["inputs"] = net["inputs"].(float64) - 1
			rows := net["w"].([]any)
			for i, row := range rows {
				r := row.([]any)
				rows[i] = r[:len(r)-1]
			}
		}},
		{"encoder mean short", func(net, enc doc) { enc["Mean"] = enc["Mean"].([]any)[1:] }},
		{"encoder std short", func(net, enc doc) { enc["Std"] = enc["Std"].([]any)[1:] }},
		{"encoder offsets shifted", func(net, enc doc) {
			off := enc["Offsets"].([]any)
			off[3] = off[3].(float64) + 1
		}},
		{"encoder vocab longer than dim", func(net, enc doc) {
			vocab := enc["Vocab"].([]any)
			vocab[len(vocab)-1] = []any{"EXTRA"}
		}},
	} {
		var d doc
		if err := json.Unmarshal(saved.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		tc.mutate(d["net"].(doc), d["encoder"].(doc))
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Load(bytes.NewReader(data))
		if tc.name == "unchanged" {
			if err != nil {
				t.Fatalf("unchanged model: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Load accepted the model", tc.name)
		}
	}
}

func TestFeatureExclusion(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	all := make([]int, features.NumFeatures)
	for i := range all {
		all[i] = i
	}
	model := Train(train, Config{ExcludeFeatures: all})
	// With every feature hidden the encoder sees only Unknowns: dim 0 and
	// constant predictions.
	if model.Encoder.Dim != 0 {
		t.Errorf("encoder dim = %d, want 0 with all features excluded", model.Encoder.Dim)
	}
	p0 := model.TakenProbability(train[0].Vectors[0])
	for _, v := range train[0].Vectors {
		if model.TakenProbability(v) != p0 {
			t.Error("blind model must predict a constant")
		}
	}
}

// TestDefaultedIdempotent: defaulting a defaulted config changes nothing,
// whatever the exclusion list already names, and never writes to the
// caller's list.
func TestDefaultedIdempotent(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Hidden: 8, Seed: 3},
		{ExcludeFeatures: []int{3}},
		{ExcludeFeatures: []int{features.FCorrDomCond, 5}},
		{IncludeLibraryFeature: true},
		{IncludeCorrelationFeatures: true, ExcludeFeatures: []int{features.FLibraryProc}},
		{IncludeLibraryFeature: true, IncludeCorrelationFeatures: true},
		{Classifier: DecisionTree, UniformWeights: true},
	} {
		orig := append([]int(nil), cfg.ExcludeFeatures...)
		once := cfg.Defaulted()
		if twice := once.Defaulted(); !reflect.DeepEqual(twice, once) {
			t.Errorf("%+v: Defaulted twice = %+v, once = %+v", cfg, twice, once)
		}
		if !reflect.DeepEqual(cfg.ExcludeFeatures, orig) {
			t.Errorf("%+v: Defaulted wrote to the caller's exclusion list", cfg)
		}
	}
	want := []int{features.FLibraryProc, features.FCorrSharedCond, features.FCorrDomCond}
	if got := (Config{}).Defaulted().ExcludeFeatures; !reflect.DeepEqual(got, want) {
		t.Errorf("default exclusions = %v, want %v", got, want)
	}
}

func TestUniformWeights(t *testing.T) {
	train := []*ProgramData{analyzeSrc(t, "a", loopy, nil)}
	a := Train(train, Config{})
	b := Train(train, Config{UniformWeights: true})
	// Both must train; the learned functions will generally differ.
	if a.TrainStats.Epochs == 0 || b.TrainStats.Epochs == 0 {
		t.Fatal("training failed")
	}
}

func TestCrossValidate(t *testing.T) {
	corpus := []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
		analyzeSrc(t, "c", `
int main() {
	int i;
	int n;
	n = 0;
	for (i = 0; i < 120; i = i + 1) {
		if (i % 2 == 0) { n = n + 1; }
	}
	return n;
}`, nil),
	}
	folds := CrossValidate(corpus, Config{})
	if len(folds) != 3 {
		t.Fatalf("%d folds, want 3", len(folds))
	}
	names := map[string]bool{}
	for _, f := range folds {
		names[f.Held] = true
		if f.TrainPrograms != 2 {
			t.Errorf("fold %s trained on %d programs", f.Held, f.TrainPrograms)
		}
		if f.MissRate < 0 || f.MissRate > 1 {
			t.Errorf("fold %s miss %g", f.Held, f.MissRate)
		}
	}
	if len(names) != 3 {
		t.Error("folds must cover every program")
	}
	if m := MeanMiss(folds); m < 0 || m > 1 {
		t.Errorf("mean miss %g", m)
	}
	// Determinism: same corpus, same config, same results.
	again := CrossValidate(corpus, Config{})
	for i := range folds {
		if folds[i].MissRate != again[i].MissRate {
			t.Error("cross-validation is not deterministic")
		}
	}
}

func TestPredictorAlwaysPredicts(t *testing.T) {
	pd := analyzeSrc(t, "a", loopy, nil)
	model := Train([]*ProgramData{pd}, Config{})
	p := &Predictor{Model: model}
	for i := range pd.Vectors {
		if _, ok := p.Prob(&pd.Vectors[i], &pd.Evidence()[i]); !ok {
			t.Fatal("ESP must predict every branch")
		}
	}
}

// cvTestCorpus is the three-program corpus the fold tests share.
func cvTestCorpus(t *testing.T) []*ProgramData {
	return []*ProgramData{
		analyzeSrc(t, "a", loopy, nil),
		analyzeSrc(t, "b", loopy2, nil),
		analyzeSrc(t, "c", `
int main() {
	int i;
	int n;
	n = 0;
	for (i = 0; i < 90; i = i + 1) {
		if (i % 3 == 0) { n = n + 2; }
	}
	return n;
}`, nil),
	}
}

// cvTestConfigs are the configurations the fold tests cover.
var cvTestConfigs = []Config{
	{},
	{Hidden: 8, Seed: 5},
	{UniformWeights: true},
	{ExcludeFeatures: []int{features.FBrOpcode}},
}

// savedModel returns the model's Save bytes.
func savedModel(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrossValidateSerialParity: the parallel CrossValidate must match the
// serial reference fold-for-fold, bitwise. The fold-level caching of prepared
// examples and the fold goroutines must not perturb any result, the model
// included.
func TestCrossValidateSerialParity(t *testing.T) {
	corpus := cvTestCorpus(t)
	for _, cfg := range cvTestConfigs {
		par := CrossValidate(corpus, cfg)
		ser := CrossValidateSerial(corpus, cfg)
		if len(par) != len(ser) {
			t.Fatalf("fold counts differ: %d vs %d", len(par), len(ser))
		}
		for i := range par {
			p, s := par[i], ser[i]
			if p.Held != s.Held || p.MissRate != s.MissRate || p.TrainPrograms != s.TrainPrograms ||
				p.Model.TrainStats.Epochs != s.Model.TrainStats.Epochs {
				t.Errorf("cfg %+v fold %d: parallel %s/%v/%d/%d vs serial %s/%v/%d/%d", cfg, i,
					p.Held, p.MissRate, p.TrainPrograms, p.Model.TrainStats.Epochs,
					s.Held, s.MissRate, s.TrainPrograms, s.Model.TrainStats.Epochs)
			}
			if !bytes.Equal(savedModel(t, p.Model), savedModel(t, s.Model)) {
				t.Errorf("cfg %+v fold %d: parallel and serial models differ", cfg, i)
			}
		}
	}
}

// TestFoldModelIsTrainModel: a fold's model is the model Train returns on
// the corpus without the held-out program, so callers that need held-out
// models can read them from CrossValidate instead of training again.
func TestFoldModelIsTrainModel(t *testing.T) {
	corpus := cvTestCorpus(t)
	for _, cfg := range append(cvTestConfigs, Config{Classifier: DecisionTree}) {
		for k, fold := range CrossValidate(corpus, cfg) {
			var others []*ProgramData
			for j, pd := range corpus {
				if j != k {
					others = append(others, pd)
				}
			}
			want := Train(others, cfg)
			if !bytes.Equal(savedModel(t, fold.Model), savedModel(t, want)) {
				t.Errorf("cfg %+v fold %d (%s): model differs from Train on the other programs",
					cfg, k, fold.Held)
			}
			if fold.Model.TrainStats.Epochs != want.TrainStats.Epochs {
				t.Errorf("cfg %+v fold %d: %d epochs, Train ran %d",
					cfg, k, fold.Model.TrainStats.Epochs, want.TrainStats.Epochs)
			}
		}
	}
}

// TestEvidenceOnceUnderConcurrency: goroutines asking for a program's
// evidence at once all get the one slice, equal to a fresh EvidenceOf.
func TestEvidenceOnceUnderConcurrency(t *testing.T) {
	pd := analyzeSrc(t, "a", loopy, nil)
	got := make([][]heuristics.Evidence, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = pd.Evidence()
		}()
	}
	wg.Wait()
	want := heuristics.EvidenceOf(pd.Sites)
	for i := range got {
		if !reflect.DeepEqual(got[i], want) || &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d: evidence differs or was computed twice", i)
		}
	}
}

// CrossValidateSerial is CrossValidate with the folds run one at a time, in
// order. It exists as the reference for tests: the parallel run must produce
// identical folds.
func CrossValidateSerial(corpus []*ProgramData, cfg Config) []FoldResult {
	return crossValidate(corpus, cfg, 1)
}
