// Package neural implements the feed-forward network of Section 3.1.1: one
// tanh hidden layer, an output unit y = 0.5·(tanh(v·h + a) + 1) normalized
// to [0,1], batch backpropagation minimizing the paper's weighted
// missed-branch / branch-incorrectly-taken loss
//
//	E = Σ_k n_k [ y_k (1 − t_k) + t_k (1 − y_k) ]
//
// (t_k the branch's true taken-probability, n_k its normalized execution
// weight), an adaptive learning rate (raised while error falls steadily,
// lowered otherwise), no momentum, and early stopping on the thresholded
// error to avoid overfitting.
//
// TrainCSR trains on sparse rows and fuses the early-stopping forward pass
// into the training pass, and ForwardSparse serves (csr.go). Their oracle is
// the dense network in the package's tests (Train, ForwardInto): both
// accumulate each weight's contributions in the same example-then-column
// order, so a fixed seed yields bit-identical models and outputs from
// either. Training one network is serial; parallelism lives one level up,
// across independently trained models.
package neural

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Config parameterizes a network and its training run.
type Config struct {
	Inputs int
	Hidden int
	// Seed makes weight initialization deterministic.
	Seed uint64
	// LearnRate is the initial learning rate (default 0.2).
	LearnRate float64
	// MaxEpochs bounds training (default 400).
	MaxEpochs int
	// Patience is the number of epochs without thresholded-error improvement
	// before early stopping (default 25).
	Patience int
	// LRUp and LRDown are the adaptive learning-rate factors
	// (defaults 1.05 and 0.7).
	LRUp   float64
	LRDown float64
	// RecordHistory retains the per-epoch loss and thresholded-error curves
	// in the TrainResult. Off by default: cross-validation runs thousands of
	// epochs whose histories nobody reads.
	RecordHistory bool
}

func (c Config) withDefaults() Config {
	if c.LearnRate == 0 {
		c.LearnRate = 0.2
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 400
	}
	if c.Patience == 0 {
		c.Patience = 25
	}
	if c.LRUp == 0 {
		c.LRUp = 1.05
	}
	if c.LRDown == 0 {
		c.LRDown = 0.7
	}
	return c
}

// Net is the branch-prediction network of Figure 1. The hidden×inputs weight
// matrix lives in one contiguous column-major buffer: W[j*Hidden+i] is the
// weight from input j to hidden unit i. Column-major order lets the forward
// and gradient kernels walk one input column while updating all hidden
// accumulators, which keeps the per-accumulator floating-point addition order
// identical to the classic row-major loops while breaking their serial
// add-latency dependency chain.
type Net struct {
	Inputs int
	Hidden int
	W      []float64 // column-major hidden×inputs, W[j*Hidden+i]
	B      []float64 // hidden biases
	V      []float64 // hidden → output
	A      float64   // output bias
}

// Weight returns the weight from input j to hidden unit i.
func (n *Net) Weight(i, j int) float64 { return n.W[j*n.Hidden+i] }

// New creates a network with small deterministic random weights.
func New(cfg Config) *Net {
	cfg = cfg.withDefaults()
	rng := newRNG(cfg.Seed)
	n := &Net{
		Inputs: cfg.Inputs,
		Hidden: cfg.Hidden,
		W:      make([]float64, cfg.Hidden*cfg.Inputs),
		B:      make([]float64, cfg.Hidden),
		V:      make([]float64, cfg.Hidden),
	}
	scale := 1 / math.Sqrt(float64(cfg.Inputs)+1)
	// The draw order (row of W, then bias, then output weight, per hidden
	// unit) is part of the seed contract and must not change.
	for i := 0; i < cfg.Hidden; i++ {
		for j := 0; j < cfg.Inputs; j++ {
			n.W[j*cfg.Hidden+i] = rng.uniform() * scale
		}
		n.B[i] = rng.uniform() * scale
		n.V[i] = rng.uniform() * 0.5
	}
	n.A = rng.uniform() * 0.5
	return n
}

func (n *Net) output(h []float64) float64 {
	z := n.A
	for i, hv := range h {
		z += float64(n.V[i] * hv)
	}
	return 0.5 * (math.Tanh(z) + 1)
}

// TrainResult reports a training run.
type TrainResult struct {
	Epochs          int
	FinalLoss       float64
	BestThresholded float64
	FinalLearnRate  float64
	StoppedEarly    bool
	// LossHistory and ThresholdHistory are populated only when
	// Config.RecordHistory is set.
	LossHistory      []float64
	ThresholdHistory []float64
}

type weights struct {
	w []float64
	b []float64
	v []float64
	a float64
}

func (n *Net) snapshot() weights {
	return weights{
		w: append([]float64(nil), n.W...),
		b: append([]float64(nil), n.B...),
		v: append([]float64(nil), n.V...),
		a: n.A,
	}
}

func (n *Net) restore(s weights) {
	copy(n.W, s.w)
	copy(n.B, s.b)
	copy(n.V, s.v)
	n.A = s.a
}

// netJSON is the serialized form: the weight matrix stays row-major
// ("w"[i][j] = weight from input j to hidden unit i) so model files written
// before the column-major layout still load, and new files stay readable by
// older tools.
type netJSON struct {
	Inputs int         `json:"inputs"`
	Hidden int         `json:"hidden"`
	W      [][]float64 `json:"w"`
	B      []float64   `json:"b"`
	V      []float64   `json:"v"`
	A      float64     `json:"a"`
}

// MarshalJSON implements json.Marshaler.
func (n *Net) MarshalJSON() ([]byte, error) {
	rows := make([][]float64, n.Hidden)
	backing := make([]float64, n.Hidden*n.Inputs)
	for i := 0; i < n.Hidden; i++ {
		rows[i] = backing[i*n.Inputs : (i+1)*n.Inputs]
		for j := 0; j < n.Inputs; j++ {
			rows[i][j] = n.W[j*n.Hidden+i]
		}
	}
	return json.Marshal(netJSON{
		Inputs: n.Inputs, Hidden: n.Hidden, W: rows, B: n.B, V: n.V, A: n.A,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (n *Net) UnmarshalJSON(data []byte) error {
	var nj netJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return err
	}
	if len(nj.W) != nj.Hidden {
		return fmt.Errorf("neural: weight matrix has %d rows, want %d", len(nj.W), nj.Hidden)
	}
	if nj.Inputs < 0 {
		return fmt.Errorf("neural: negative input count %d", nj.Inputs)
	}
	if len(nj.B) != nj.Hidden || len(nj.V) != nj.Hidden {
		return fmt.Errorf("neural: %d hidden biases and %d output weights, want %d each",
			len(nj.B), len(nj.V), nj.Hidden)
	}
	n.Inputs = nj.Inputs
	n.Hidden = nj.Hidden
	n.B = nj.B
	n.V = nj.V
	n.A = nj.A
	n.W = make([]float64, nj.Hidden*nj.Inputs)
	for i, row := range nj.W {
		if len(row) != nj.Inputs {
			return fmt.Errorf("neural: weight row %d has %d columns, want %d", i, len(row), nj.Inputs)
		}
		for j, v := range row {
			n.W[j*nj.Hidden+i] = v
		}
	}
	return nil
}

// Describe renders the network architecture (Figure 1 of the paper) as
// text: input layer (static feature set), hidden layer, output unit.
func (n *Net) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: the branch prediction neural network\n")
	fmt.Fprintf(&sb, "  output  (branch probability)           : y = 0.5*(tanh(v.h + a) + 1)\n")
	fmt.Fprintf(&sb, "  hidden  (%3d units)                     : h_i = tanh(W_i.x + b_i)\n", n.Hidden)
	fmt.Fprintf(&sb, "  input   (%3d units, static feature set) : one-hot, z-normalized, '?' gated to 0\n", n.Inputs)
	return sb.String()
}

// rng is a small deterministic generator (xorshift64*) so results do not
// depend on math/rand implementation details.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// uniform returns a value in (-1, 1).
func (r *rng) uniform() float64 {
	return float64(2*float64(r.next()>>11)/float64(1<<53)) - 1
}
