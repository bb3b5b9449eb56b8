package neural

import (
	"math"
	"testing"
)

// TestTanhApproxAccuracy bounds the LUT's error against math.Tanh over a
// dense sweep, including the clamp region, negatives, and specials. The
// bound (2e-6) is three orders of magnitude below the quantization deltas
// the calibration sweep absorbs (QuantSweepPoint.MaxAbsDelta ~ 1e-3), which
// is what justifies treating the approximation as part of the quantized
// model rather than a separate error source.
func TestTanhApproxAccuracy(t *testing.T) {
	const bound = 2e-6
	var worst float64
	for x := -12.0; x <= 12.0; x += 1e-3 {
		if d := math.Abs(tanhApprox(x) - math.Tanh(x)); d > worst {
			worst = d
		}
	}
	if worst > bound {
		t.Fatalf("tanhApprox max error %g over [-12,12], want <= %g", worst, bound)
	}
	t.Logf("max |tanhApprox - tanh| = %g", worst)

	for _, x := range []float64{0, -0.0, tanhMax, -tanhMax, math.Inf(1), math.Inf(-1)} {
		got, want := tanhApprox(x), math.Tanh(x)
		if math.Abs(got-want) > bound {
			t.Errorf("tanhApprox(%v) = %v, want ~%v", x, got, want)
		}
	}
	if y := tanhApprox(math.NaN()); y != 1 && y != -1 {
		t.Errorf("tanhApprox(NaN) = %v, want a clamp, not a poisoned value", y)
	}
	// Oddness: serving negates through the same table, so the two halves
	// must be exact mirrors.
	for _, x := range []float64{0.1, 1.5, 7.999, 42} {
		if tanhApprox(-x) != -tanhApprox(x) {
			t.Errorf("tanhApprox not odd at %v", x)
		}
	}
}

// TestForwardAccMatchesForward pins the decomposition contract ForwardAcc
// documents: feeding it accumulators computed any which way — here, split
// into arbitrary segment sums — must reproduce the full-row oracle
// (quantForwardRef) bit for bit.
func TestForwardAccMatchesForward(t *testing.T) {
	const inputs, hidden = 57, 9
	n := New(Config{Inputs: inputs, Hidden: hidden, Seed: 7})
	q, err := Quantize(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	qx := make([]int8, inputs)
	for i := range qx {
		qx[i] = int8((i*37+11)%255 - 127)
	}
	want := quantForwardRef(q, qx)

	acc := make([]int32, hidden)
	for i := 0; i < hidden; i++ {
		row := q.WQ[i*inputs : (i+1)*inputs]
		// Sum in deliberately odd-sized segments to exercise associativity.
		for lo := 0; lo < inputs; {
			hi := lo + 1 + (lo % 7)
			if hi > inputs {
				hi = inputs
			}
			var part int32
			for j := lo; j < hi; j++ {
				part += int32(row[j]) * int32(qx[j])
			}
			acc[i] += part
			lo = hi
		}
	}
	if got := q.ForwardAcc(acc); got != want {
		t.Fatalf("ForwardAcc %v, full-row oracle %v — not bit-identical", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("short acc did not panic")
		}
	}()
	q.ForwardAcc(acc[:hidden-1])
}
