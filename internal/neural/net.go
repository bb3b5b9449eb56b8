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
// Two training kernels share these semantics bit for bit: Train, the dense
// reference implementation, and TrainCSR, the production kernel that runs on
// sparse rows and fuses the early-stopping forward pass into the training
// pass (csr.go). Both accumulate each weight's contributions in the same
// example-then-column order, so a fixed seed yields identical models from
// either path. Training one network is serial; parallelism lives one level
// up, across independently trained models.
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

// SetWeight sets the weight from input j to hidden unit i.
func (n *Net) SetWeight(i, j int, v float64) { n.W[j*n.Hidden+i] = v }

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

// HiddenActivations computes the hidden layer into h (length Hidden).
func (n *Net) HiddenActivations(x []float64, h []float64) {
	hh := n.Hidden
	copy(h, n.B)
	h = h[:hh]
	for j, xv := range x {
		if xv == 0 {
			continue
		}
		col := n.W[j*hh : j*hh+hh]
		for i, wv := range col {
			h[i] += wv * xv
		}
	}
	for i, z := range h {
		h[i] = math.Tanh(z)
	}
}

// Forward returns the network output for one input: the estimated
// probability (in [0,1]) that the branch is taken. It allocates a hidden
// scratch buffer per call; hot paths should use ForwardInto.
func (n *Net) Forward(x []float64) float64 {
	return n.ForwardInto(make([]float64, n.Hidden), x)
}

// ForwardInto is Forward with a caller-provided hidden scratch buffer
// (length Hidden), avoiding the per-call allocation.
func (n *Net) ForwardInto(h []float64, x []float64) float64 {
	n.HiddenActivations(x, h)
	return n.output(h)
}

// ForwardBatch runs every row of xs through the network, writing the output
// probabilities into out (len(out) must equal len(xs), checked — a short out
// would otherwise panic mid-batch with rows already mutated). The caller
// provides one hidden scratch buffer (length Hidden) that is reused across
// the whole batch — the serving layer's batched inference hook. The empty
// batch is an explicit no-op.
func (n *Net) ForwardBatch(h []float64, xs [][]float64, out []float64) {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("neural: ForwardBatch out length %d, want %d", len(out), len(xs)))
	}
	if len(xs) == 0 {
		return
	}
	for i, x := range xs {
		out[i] = n.ForwardInto(h, x)
	}
}

func (n *Net) output(h []float64) float64 {
	z := n.A
	for i, hv := range h {
		z += n.V[i] * hv
	}
	return 0.5 * (math.Tanh(z) + 1)
}

// Loss computes the paper's weighted expected-miss loss over a dataset.
func (n *Net) Loss(xs [][]float64, t, w []float64) float64 {
	h := make([]float64, n.Hidden)
	var e float64
	for k, x := range xs {
		y := n.ForwardInto(h, x)
		e += w[k] * (y*(1-t[k]) + t[k]*(1-y))
	}
	return e
}

// ThresholdedLoss is the loss with the output thresholded to {0,1} — the
// early-stopping criterion ("training continues until the thresholded error
// of the net no longer decreases").
func (n *Net) ThresholdedLoss(xs [][]float64, t, w []float64) float64 {
	h := make([]float64, n.Hidden)
	var e float64
	for k, x := range xs {
		y := 0.0
		if n.ForwardInto(h, x) > 0.5 {
			y = 1
		}
		e += w[k] * (y*(1-t[k]) + t[k]*(1-y))
	}
	return e
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

// Train fits the network with batch gradient descent. xs are the encoded
// feature vectors, t the per-branch taken-probabilities (targets), and w the
// normalized branch weights n_k. Training mutates the receiver and restores
// the weights that achieved the best thresholded error.
//
// This is the dense reference kernel; TrainCSR produces bit-identical
// models from sparse rows, faster.
func (n *Net) Train(cfg Config, xs [][]float64, t, w []float64) TrainResult {
	cfg = cfg.withDefaults()
	if len(xs) == 0 {
		return TrainResult{}
	}
	lr := cfg.LearnRate
	res := TrainResult{BestThresholded: math.Inf(1)}
	if cfg.RecordHistory {
		res.LossHistory = make([]float64, 0, cfg.MaxEpochs)
		res.ThresholdHistory = make([]float64, 0, cfg.MaxEpochs)
	}
	prevLoss := math.Inf(1)
	best := n.snapshot()
	sinceBest := 0

	hh := n.Hidden
	gW := make([]float64, len(n.W))
	gB := make([]float64, hh)
	gV := make([]float64, hh)
	h := make([]float64, hh)
	dh := make([]float64, hh)

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		// Zero gradients.
		for i := range gW {
			gW[i] = 0
		}
		for i := 0; i < hh; i++ {
			gB[i] = 0
			gV[i] = 0
		}
		gA := 0.0
		var loss float64
		for k, x := range xs {
			n.HiddenActivations(x, h)
			y := n.output(h)
			loss += w[k] * (y*(1-t[k]) + t[k]*(1-y))
			// dE/dy = w_k (1 - 2 t_k); dy/dz = 0.5 (1 - u²) with u = 2y-1.
			u := 2*y - 1
			dOut := w[k] * (1 - 2*t[k]) * 0.5 * (1 - u*u)
			for i := 0; i < hh; i++ {
				hi := h[i]
				gV[i] += dOut * hi
				d := dOut * n.V[i] * (1 - hi*hi)
				gB[i] += d
				dh[i] = d
			}
			for j, xv := range x {
				if xv == 0 {
					continue
				}
				gcol := gW[j*hh : j*hh+hh]
				for i, dv := range dh {
					gcol[i] += dv * xv
				}
			}
			gA += dOut
		}
		// Batch update.
		for i := range n.W {
			n.W[i] -= lr * gW[i]
		}
		for i := 0; i < hh; i++ {
			n.V[i] -= lr * gV[i]
			n.B[i] -= lr * gB[i]
		}
		n.A -= lr * gA

		// Adaptive learning rate: grow while the error drops, shrink when
		// it rises.
		if loss < prevLoss {
			lr *= cfg.LRUp
		} else {
			lr *= cfg.LRDown
		}
		prevLoss = loss

		thr := n.ThresholdedLoss(xs, t, w)
		if cfg.RecordHistory {
			res.LossHistory = append(res.LossHistory, loss)
			res.ThresholdHistory = append(res.ThresholdHistory, thr)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = loss
		res.FinalLearnRate = lr
		if thr < res.BestThresholded-1e-12 {
			res.BestThresholded = thr
			copy(best.w, n.W)
			copy(best.b, n.B)
			copy(best.v, n.V)
			best.a = n.A
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest >= cfg.Patience {
				res.StoppedEarly = true
				break
			}
		}
	}
	n.restore(best)
	return res
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
	return 2*float64(r.next()>>11)/float64(1<<53) - 1
}
