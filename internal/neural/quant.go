package neural

import (
	"fmt"
	"math"
)

// QuantNet is the int8 inference twin of Net: the hidden×inputs weight
// matrix quantized symmetrically per row to int8, inputs quantized to int8
// with one fixed calibrated scale, and the hidden pre-activations computed
// as exact int32 dot products. Only the first layer — the O(D·H) bulk of
// the forward pass — runs in fixed point; biases, tanh, and the H-wide
// output layer stay float64, where they cost nothing and keep the output a
// smooth probability.
//
// QuantNet holds the weights and finishes the pass (ForwardAcc); the
// caller supplies the int32 accumulators. core builds them from
// per-(feature, value) contribution tables folded against WQ, so no D-wide
// int8 input row is ever materialized.
//
// Quantization moves probabilities, never measured outcomes: the calibration
// step (core.CalibrateQuant) picks XScale and a decision guard band so that
// taken/not-taken decisions — and therefore every miss rate — are pinned to
// the float reference over the whole corpus. See DESIGN.md.
type QuantNet struct {
	Inputs int
	Hidden int
	// WQ is the row-major Hidden×Inputs int8 weight matrix:
	// WQ[i*Inputs+j] ≈ W[i][j] / WScale[i]. Row-major (the transpose of
	// Net.W's column-major layout) so each hidden unit's dot product walks
	// one contiguous int8 row.
	WQ []int8
	// WScale dequantizes row i: w ≈ int8 · WScale[i] (symmetric, per row).
	WScale []float64
	// XScale quantizes inputs: qx = clamp(round(x · XScale), ±127). Fixed
	// at calibration time rather than per-vector, so a (feature, value)
	// pair always quantizes to the same int8 pattern and its contribution
	// to every accumulator can be precomputed once.
	XScale float64
	// B, V, A are carried unquantized from the float net.
	B []float64
	V []float64
	A float64

	// deq[i] = WScale[i]/XScale folds both scales into the single
	// float multiply that turns row i's int32 accumulator into a
	// pre-activation.
	deq []float64
}

// QuantizeSym is the symmetric int8 grid inputs are quantized on:
// clamp(round(v/step), ±127). step is the quantization step size, i.e.
// 1/XScale for inputs. Callers that quantize normalized activations must
// go through it so every input lands on exactly the calibrated codes.
func QuantizeSym(v, step float64) int8 { return quantizeSym(v, step) }

// quantizeSym quantizes v symmetrically: clamp(round(v/scale)) to ±127.
// The -128 code is never produced, keeping the grid symmetric around zero.
func quantizeSym(v, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	r := math.Round(v / scale)
	if r > 127 {
		return 127
	}
	if r < -127 {
		return -127
	}
	return int8(r)
}

// Quantize builds the int8 twin of a trained float net. xscale is the input
// quantization scale (1/xscale is the largest representable activation
// magnitude; larger inputs saturate).
func Quantize(n *Net, xscale float64) (*QuantNet, error) {
	if n == nil {
		return nil, fmt.Errorf("neural: Quantize: nil net")
	}
	if xscale <= 0 || math.IsInf(xscale, 0) || math.IsNaN(xscale) {
		return nil, fmt.Errorf("neural: Quantize: bad xscale %v", xscale)
	}
	q := &QuantNet{
		Inputs: n.Inputs,
		Hidden: n.Hidden,
		WQ:     make([]int8, n.Hidden*n.Inputs),
		WScale: make([]float64, n.Hidden),
		XScale: xscale,
		B:      append([]float64(nil), n.B...),
		V:      append([]float64(nil), n.V...),
		A:      n.A,
		deq:    make([]float64, n.Hidden),
	}
	for i := 0; i < n.Hidden; i++ {
		var maxAbs float64
		for j := 0; j < n.Inputs; j++ {
			if a := math.Abs(n.Weight(i, j)); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1 // all-zero row: any scale dequantizes zeros to zero
		}
		q.WScale[i] = scale
		q.deq[i] = scale / xscale
		row := q.WQ[i*n.Inputs : (i+1)*n.Inputs]
		for j := 0; j < n.Inputs; j++ {
			row[j] = quantizeSym(n.Weight(i, j), scale)
		}
	}
	return q, nil
}

// ForwardAcc finishes a forward pass from the hidden-unit accumulators
// acc[i] = Σ_j WQ[i·d+j]·qx[j] and returns the output probability. It
// allocates nothing. Integer addition is exact and associative, so any
// decomposition of the dot products — a full-row loop or a sum of
// per-feature partial products — yields the same accumulators and
// therefore the same probability, bit for bit.
//
// The nonlinearity is tanhApprox, not math.Tanh: the approximation error is
// calibration noise by design (the sweep measures flips against this exact
// function), and the table lookup is what keeps the int8 pass from being
// tanh-bound.
func (q *QuantNet) ForwardAcc(acc []int32) float64 {
	if len(acc) != q.Hidden {
		panic(fmt.Sprintf("neural: QuantNet.ForwardAcc acc length %d, want %d", len(acc), q.Hidden))
	}
	z := q.A
	for i, a := range acc {
		z += q.V[i] * tanhApprox(float64(a)*q.deq[i]+q.B[i])
	}
	return 0.5 * (tanhApprox(z) + 1)
}
