package neural

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestForwardRange(t *testing.T) {
	n := New(Config{Inputs: 5, Hidden: 3, Seed: 7})
	f := func(a, b, c, d, e float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 10)
		}
		y := n.Forward([]float64{clamp(a), clamp(b), clamp(c), clamp(d), clamp(e)})
		return y >= 0 && y <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := New(Config{Inputs: 4, Hidden: 3, Seed: 5})
	b := New(Config{Inputs: 4, Hidden: 3, Seed: 5})
	c := New(Config{Inputs: 4, Hidden: 3, Seed: 6})
	x := []float64{1, -1, 0.5, 2}
	if a.Forward(x) != b.Forward(x) {
		t.Error("same seed must give identical networks")
	}
	if a.Forward(x) == c.Forward(x) {
		t.Error("different seeds should differ")
	}
}

// TestGradients verifies the backpropagation gradients against finite
// differences of the paper's weighted loss.
func TestGradients(t *testing.T) {
	cfg := Config{Inputs: 3, Hidden: 2, Seed: 11}
	xs := [][]float64{{0.5, -1, 2}, {1, 1, -0.5}, {-2, 0.3, 0.7}}
	ts := []float64{0.9, 0.2, 0.6}
	ws := []float64{0.5, 0.3, 0.2}

	n := New(cfg)
	grads := rawGradient(n, xs, ts, ws)
	loss := func() float64 { return n.Loss(xs, ts, ws) }
	const h = 1e-6
	checkGrad := func(name string, get func() float64, set func(float64)) {
		orig := get()
		set(orig + h)
		up := loss()
		set(orig - h)
		down := loss()
		set(orig)
		numeric := (up - down) / (2 * h)
		analytic := grads[name]
		if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
			t.Errorf("%s: numeric %g vs analytic %g", name, numeric, analytic)
		}
	}
	checkGrad("w00", func() float64 { return n.Weight(0, 0) }, func(v float64) { n.SetWeight(0, 0, v) })
	checkGrad("w11", func() float64 { return n.Weight(1, 1) }, func(v float64) { n.SetWeight(1, 1, v) })
	checkGrad("b0", func() float64 { return n.B[0] }, func(v float64) { n.B[0] = v })
	checkGrad("v1", func() float64 { return n.V[1] }, func(v float64) { n.V[1] = v })
	checkGrad("a", func() float64 { return n.A }, func(v float64) { n.A = v })
}

// rawGradient computes the batch gradient with an independent, straight
// implementation of the chain rule, mirroring the derivation in Train.
func rawGradient(n *Net, xs [][]float64, ts, ws []float64) map[string]float64 {
	out := map[string]float64{}
	gW := make([][]float64, n.Hidden)
	for i := range gW {
		gW[i] = make([]float64, n.Inputs)
	}
	gB := make([]float64, n.Hidden)
	gV := make([]float64, n.Hidden)
	gA := 0.0
	h := make([]float64, n.Hidden)
	for k, x := range xs {
		n.HiddenActivations(x, h)
		y := n.output(h)
		u := 2*y - 1
		dOut := ws[k] * (1 - 2*ts[k]) * 0.5 * (1 - float64(u*u))
		for i := 0; i < n.Hidden; i++ {
			gV[i] += float64(dOut * h[i])
			dHid := float64(dOut * n.V[i] * (1 - float64(h[i]*h[i])))
			gB[i] += dHid
			for j := range x {
				gW[i][j] += float64(dHid * x[j])
			}
		}
		gA += float64(dOut)
	}
	out["w00"] = gW[0][0]
	out["w11"] = gW[1][1]
	out["b0"] = gB[0]
	out["v1"] = gV[1]
	out["a"] = gA
	return out
}

func TestLearnsXOR(t *testing.T) {
	xs := [][]float64{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}}
	ts := []float64{0, 1, 1, 0}
	ws := []float64{0.25, 0.25, 0.25, 0.25}
	// XOR is sensitive to initialization under plain batch descent without
	// momentum; a small deterministic seed sweep must find a solver.
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := Config{Inputs: 2, Hidden: 8, Seed: seed, LearnRate: 0.5,
			MaxEpochs: 4000, Patience: 4000}
		n := New(cfg)
		n.Train(cfg, xs, ts, ws)
		solved := true
		for k, x := range xs {
			if (n.Forward(x) > 0.5) != (ts[k] == 1) {
				solved = false
			}
		}
		if solved {
			return
		}
	}
	t.Error("no seed in 1..8 learned XOR")
}

func TestWeightedLossFavorsHeavyExamples(t *testing.T) {
	// Two contradictory examples with identical inputs: the heavier one
	// must win the prediction.
	xs := [][]float64{{1, 1}, {1, 1}}
	ts := []float64{1, 0}
	ws := []float64{0.9, 0.1}
	cfg := Config{Inputs: 2, Hidden: 4, Seed: 2, MaxEpochs: 500, Patience: 500}
	n := New(cfg)
	n.Train(cfg, xs, ts, ws)
	if y := n.Forward([]float64{1, 1}); y <= 0.5 {
		t.Errorf("heavy taken example lost: y = %g", y)
	}
}

func TestEarlyStopping(t *testing.T) {
	xs := [][]float64{{1}, {-1}}
	ts := []float64{1, 0}
	ws := []float64{0.5, 0.5}
	cfg := Config{Inputs: 1, Hidden: 2, Seed: 4, MaxEpochs: 10_000, Patience: 10}
	n := New(cfg)
	res := n.Train(cfg, xs, ts, ws)
	if !res.StoppedEarly {
		t.Error("trivially separable data must stop early")
	}
	if res.Epochs >= 10_000 {
		t.Error("ran to MaxEpochs despite early stopping")
	}
	if res.BestThresholded != 0 {
		t.Errorf("best thresholded error = %g, want 0", res.BestThresholded)
	}
}

func TestTrainEmpty(t *testing.T) {
	n := New(Config{Inputs: 2, Hidden: 2, Seed: 1})
	res := n.Train(Config{Inputs: 2, Hidden: 2}, nil, nil, nil)
	if res.Epochs != 0 {
		t.Error("training on nothing must do nothing")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	cfg := Config{Inputs: 3, Hidden: 2, Seed: 9}
	n := New(cfg)
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var m Net
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.2}
	if n.Forward(x) != m.Forward(x) {
		t.Error("serialized network differs")
	}
}

func TestDescribe(t *testing.T) {
	n := New(Config{Inputs: 86, Hidden: 12, Seed: 1})
	d := n.Describe()
	for _, want := range []string{"86", "12", "tanh"} {
		if !contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// SetWeight sets the weight from input j to hidden unit i.
func (n *Net) SetWeight(i, j int, v float64) { n.W[j*n.Hidden+i] = v }
