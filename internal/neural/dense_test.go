package neural

import (
	"math"
	"testing"
)

// This file is the dense network, kept as the test oracle of the sparse
// production kernels: Train is the reference of TrainCSR and ForwardInto of
// ForwardSparse, bit for bit (csr_test.go).

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
			h[i] += float64(wv * xv)
		}
	}
	for i, z := range h {
		h[i] = math.Tanh(z)
	}
}

// Forward returns the network output for one input: the estimated
// probability (in [0,1]) that the branch is taken. It allocates a hidden
// scratch buffer per call.
func (n *Net) Forward(x []float64) float64 {
	return n.ForwardInto(make([]float64, n.Hidden), x)
}

// ForwardInto is Forward with a caller-provided hidden scratch buffer
// (length Hidden), avoiding the per-call allocation. It is the dense
// reference of ForwardSparse, which production prediction runs.
func (n *Net) ForwardInto(h []float64, x []float64) float64 {
	n.HiddenActivations(x, h)
	return n.output(h)
}

// Loss computes the paper's weighted expected-miss loss over a dataset.
func (n *Net) Loss(xs [][]float64, t, w []float64) float64 {
	h := make([]float64, n.Hidden)
	var e float64
	for k, x := range xs {
		y := n.ForwardInto(h, x)
		e += float64(w[k] * (float64(y*(1-t[k])) + float64(t[k]*(1-y))))
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
		e += float64(w[k] * (float64(y*(1-t[k])) + float64(t[k]*(1-y))))
	}
	return e
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
			loss += float64(w[k] * (float64(y*(1-t[k])) + float64(t[k]*(1-y))))
			// dE/dy = w_k (1 - 2 t_k); dy/dz = 0.5 (1 - u²) with u = 2y-1.
			u := 2*y - 1
			dOut := w[k] * (1 - 2*t[k]) * 0.5 * (1 - float64(u*u))
			for i := 0; i < hh; i++ {
				hi := h[i]
				gV[i] += float64(dOut * hi)
				d := float64(dOut * n.V[i] * (1 - float64(hi*hi)))
				gB[i] += d
				dh[i] = d
			}
			for j, xv := range x {
				if xv == 0 {
					continue
				}
				gcol := gW[j*hh : j*hh+hh]
				for i, dv := range dh {
					gcol[i] += float64(dv * xv)
				}
			}
			gA += float64(dOut)
		}
		// Batch update.
		for i := range n.W {
			n.W[i] -= float64(lr * gW[i])
		}
		for i := 0; i < hh; i++ {
			n.V[i] -= float64(lr * gV[i])
			n.B[i] -= float64(lr * gB[i])
		}
		n.A -= float64(lr * gA)

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

// BenchmarkNeuralTraining times the dense oracle's Train on a
// representative training set: 500 examples, 86 inputs, 12 hidden.
func BenchmarkNeuralTraining(b *testing.B) {
	cfg := Config{Inputs: 86, Hidden: 12, Seed: 1, MaxEpochs: 50, Patience: 50}
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64((rng>>33)&0xFFFF)/65535*2 - 1
	}
	xs := make([][]float64, 500)
	ts := make([]float64, 500)
	ws := make([]float64, 500)
	for i := range xs {
		xs[i] = make([]float64, cfg.Inputs)
		for j := range xs[i] {
			xs[i][j] = next()
		}
		ts[i] = (next() + 1) / 2
		ws[i] = 1.0 / 500
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		n.Train(cfg, xs, ts, ws)
	}
}
