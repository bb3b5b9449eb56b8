package neural

import "math"

// CSR is a batch of training inputs in compressed-sparse-row form: row k's
// nonzero entries are Index/Value[Start[k]:Start[k+1]], with column indices
// strictly ascending within a row. The one-hot feature encoding leaves every
// gated ("?") feature block and every constant column exactly zero, so rows
// carry only their active columns.
//
// Kernels that consume a CSR add the surviving terms in the same ascending
// column order the dense kernels use; since the skipped terms are exact
// zeros, dense and sparse runs produce bit-identical floats.
type CSR struct {
	// Cols is the dense width (the encoder dimension).
	Cols int
	// Start has one entry per row plus a final total-length sentinel.
	Start []int
	// Index holds the nonzero column indices, ascending within each row.
	Index []int32
	// Value holds the corresponding values.
	Value []float64
}

// Rows returns the number of rows.
func (c *CSR) Rows() int {
	if len(c.Start) == 0 {
		return 0
	}
	return len(c.Start) - 1
}

// Row returns row k's column indices and values.
func (c *CSR) Row(k int) ([]int32, []float64) {
	lo, hi := c.Start[k], c.Start[k+1]
	return c.Index[lo:hi], c.Value[lo:hi]
}

// NewCSRFromDense compresses dense rows (all of width cols), dropping exact
// zeros.
func NewCSRFromDense(xs [][]float64, cols int) *CSR {
	c := &CSR{Cols: cols, Start: make([]int, 1, len(xs)+1)}
	for _, x := range xs {
		for j, v := range x {
			if v != 0 {
				c.Index = append(c.Index, int32(j))
				c.Value = append(c.Value, v)
			}
		}
		c.Start = append(c.Start, len(c.Index))
	}
	return c
}

// forwardRow computes the hidden activations for one sparse row into h and
// returns the network output.
func (n *Net) forwardRow(h []float64, idx []int32, val []float64) float64 {
	copy(h, n.B)
	h = h[:n.Hidden]
	csrGather(h, n.W, idx, val)
	for i, z := range h {
		h[i] = math.Tanh(z)
	}
	return n.output(h)
}

// TrainCSR fits the network on sparse rows. It is the production training
// kernel: bit-identical to the dense reference Train (same seed, same data,
// same model and TrainResult) but roughly 3× faster, because it
//
//   - walks only each row's nonzero columns (column-major weight layout,
//     all hidden accumulators advanced per column); and
//   - evaluates the early-stopping thresholded error inside the next
//     epoch's forward pass instead of re-forwarding the whole dataset —
//     the error after epoch e's update is measured with exactly the weights
//     epoch e+1 forwards with, so the fused value is the same float.
//
// It runs on the calling goroutine. Callers that train many models
// (cross-validation folds) parallelize across models, not within one.
func (n *Net) TrainCSR(cfg Config, data *CSR, t, w []float64) TrainResult {
	cfg = cfg.withDefaults()
	rows := data.Rows()
	if rows == 0 {
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

	// processThr folds one epoch's post-update thresholded error into the
	// early-stopping state; it returns true when patience is exhausted.
	// The caller must not have applied the next update yet, so the current
	// weights are exactly the ones the thresholded error measured.
	processThr := func(thr float64) bool {
		if cfg.RecordHistory {
			res.ThresholdHistory = append(res.ThresholdHistory, thr)
		}
		if thr < res.BestThresholded-1e-12 {
			res.BestThresholded = thr
			copy(best.w, n.W)
			copy(best.b, n.B)
			copy(best.v, n.V)
			best.a = n.A
			sinceBest = 0
			return false
		}
		sinceBest++
		return sinceBest >= cfg.Patience
	}

	stopped := false
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		var loss, thr, gA float64
		for i := range gW {
			gW[i] = 0
		}
		for i := 0; i < hh; i++ {
			gB[i] = 0
			gV[i] = 0
		}
		for k := 0; k < rows; k++ {
			idx, val := data.Row(k)
			y := n.forwardRow(h, idx, val)
			loss += w[k] * (y*(1-t[k]) + t[k]*(1-y))
			if y > 0.5 {
				thr += w[k] * (1 - t[k])
			} else {
				thr += w[k] * t[k]
			}
			u := 2*y - 1
			dOut := w[k] * (1 - 2*t[k]) * 0.5 * (1 - u*u)
			for i := 0; i < hh; i++ {
				hi := h[i]
				gV[i] += dOut * hi
				d := dOut * n.V[i] * (1 - hi*hi)
				gB[i] += d
				dh[i] = d
			}
			csrScatter(gW, dh, idx, val)
			gA += dOut
		}
		// The pass ran with the weights produced by the previous epoch's
		// update, so its thresholded error is that epoch's early-stopping
		// measurement. (The epoch-0 pass sees the initial weights, which
		// the reference never evaluates — discard.)
		if epoch > 0 && processThr(thr) {
			res.StoppedEarly = true
			stopped = true
			break
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
		if loss < prevLoss {
			lr *= cfg.LRUp
		} else {
			lr *= cfg.LRDown
		}
		prevLoss = loss
		if cfg.RecordHistory {
			res.LossHistory = append(res.LossHistory, loss)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = loss
		res.FinalLearnRate = lr
	}
	if !stopped {
		// The final epoch's update has not been measured yet: one forward
		// pass for its thresholded error.
		var thr float64
		for k := 0; k < rows; k++ {
			idx, val := data.Row(k)
			if n.forwardRow(h, idx, val) > 0.5 {
				thr += w[k] * (1 - t[k])
			} else {
				thr += w[k] * t[k]
			}
		}
		if processThr(thr) {
			res.StoppedEarly = true
		}
	}
	n.restore(best)
	return res
}
