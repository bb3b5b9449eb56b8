package neural

import (
	"math"
	"testing"
)

// quantForwardRef is the test oracle for the int8 forward pass: H
// full-row int8 dot products over an already-quantized input row, finished
// by ForwardAcc. Production never materializes the D-wide row (core sums
// prefolded per-feature contributions instead); integer addition makes the
// two bit-identical.
func quantForwardRef(q *QuantNet, qx []int8) float64 {
	acc := make([]int32, q.Hidden)
	for i := range acc {
		for j, w := range q.WQ[i*q.Inputs : (i+1)*q.Inputs] {
			acc[i] += int32(w) * int32(qx[j])
		}
	}
	return q.ForwardAcc(acc)
}

// TestQuantizeSym pins the quantizer's grid: symmetric ±127, round half
// away from zero, saturating.
func TestQuantizeSym(t *testing.T) {
	cases := []struct {
		v, scale float64
		want     int8
	}{
		{0, 1, 0},
		{1, 1, 1},
		{-1, 1, -1},
		{0.5, 1, 1}, // round half away from zero
		{-0.5, 1, -1},
		{0.49, 1, 0},
		{126.6, 1, 127},
		{1000, 1, 127},   // saturate high
		{-1000, 1, -127}, // saturate low symmetrically (never -128)
		{3, 2, 2},        // scale divides before rounding
		{1, 0, 0},        // degenerate scale quantizes to zero
	}
	for _, c := range cases {
		if got := quantizeSym(c.v, c.scale); got != c.want {
			t.Errorf("quantizeSym(%v, %v) = %d, want %d", c.v, c.scale, got, c.want)
		}
	}
}

// TestQuantizeRoundTrip checks Quantize against a hand-computed net: the
// dequantized weights stay within half a quantization step of the float
// weights, and the quantized forward output stays close to the float one.
func TestQuantizeRoundTrip(t *testing.T) {
	cfg := Config{Inputs: 33, Hidden: 5, Seed: 3}
	n := New(cfg)
	q, err := Quantize(n, 127/4.0) // representable input range ±4
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.Hidden; i++ {
		for j := 0; j < n.Inputs; j++ {
			w := n.Weight(i, j)
			wq := float64(q.WQ[i*q.Inputs+j]) * q.WScale[i]
			if d := math.Abs(w - wq); d > q.WScale[i]/2+1e-12 {
				t.Fatalf("weight (%d,%d): float %v dequantized %v, off by %v > step/2 %v",
					i, j, w, wq, d, q.WScale[i]/2)
			}
		}
	}

	rng := newRNG(9)
	x := make([]float64, cfg.Inputs)
	qx := make([]int8, cfg.Inputs)
	h := make([]float64, cfg.Hidden)
	var worst float64
	for trial := 0; trial < 200; trial++ {
		for j := range x {
			x[j] = rng.uniform() * 3
		}
		for j, v := range x {
			qx[j] = QuantizeSym(v, 1/q.XScale)
		}
		yf := n.ForwardInto(h, x)
		yq := quantForwardRef(q, qx)
		if d := math.Abs(yf - yq); d > worst {
			worst = d
		}
	}
	// The error budget here is loose — the decision-pinning calibration is
	// what guarantees outcomes — but a broken quantizer would blow far past
	// this.
	if worst > 0.05 {
		t.Fatalf("worst |float-quant| probability gap %v > 0.05", worst)
	}
}

// TestQuantizeAllZeroRow covers the degenerate all-zero weight row: its
// scale must stay finite and its contribution exactly tanh(bias).
func TestQuantizeAllZeroRow(t *testing.T) {
	n := &Net{
		Inputs: 8,
		Hidden: 2,
		W:      make([]float64, 16),
		B:      []float64{0.25, -0.5},
		V:      []float64{1, 1},
	}
	// Row 1 gets real weights; row 0 stays all zero.
	for j := 0; j < 8; j++ {
		n.SetWeight(1, j, float64(j-4)/8)
	}
	q, err := Quantize(n, 127.0)
	if err != nil {
		t.Fatal(err)
	}
	if q.WScale[0] != 1 {
		t.Fatalf("all-zero row scale = %v, want 1", q.WScale[0])
	}
	qx := make([]int8, 8)
	for i := range qx {
		qx[i] = 127
	}
	got := quantForwardRef(q, qx)
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Fatalf("forward with all-zero row = %v, want a probability", got)
	}
}

// TestQuantizeRejectsBadScale pins the error paths.
func TestQuantizeRejectsBadScale(t *testing.T) {
	n := New(Config{Inputs: 4, Hidden: 2, Seed: 1})
	for _, s := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := Quantize(n, s); err == nil {
			t.Errorf("Quantize(xscale=%v): no error", s)
		}
	}
	if _, err := Quantize(nil, 1); err == nil {
		t.Error("Quantize(nil): no error")
	}
}
